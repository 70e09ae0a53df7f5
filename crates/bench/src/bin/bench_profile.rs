//! Profiling drill-down: run one quick HARP training pass on GEANT with
//! full observability (spans + per-op tape timing) and print where the time
//! goes — the stage breakdown (GCN / SETTRANS / MLP1 / RAU / backward /
//! merge / validate) as a span tree, the hottest tape ops by total
//! forward/backward nanoseconds, and the tape's physical memory per pass
//! (value-arena floats and peak live gradient floats).
//!
//! Usage: `cargo run --release -p harp-bench --bin bench_profile [epochs]`
//! (default 1 epoch). Structured events stream to stderr in human form;
//! the report prints to stdout at the end.

use harp_bench::zoo;
use harp_core::{train_model, EvalOptions, Instance, TrainConfig};
use harp_obs::{Config, SinkKind};
use harp_paths::TunnelSet;
use harp_traffic::{gravity_series, GravityConfig};
use rand::{rngs::StdRng, SeedableRng};

fn geant_instances(count: usize) -> Vec<Instance> {
    let topo = harp_datasets::geant();
    let edge_nodes: Vec<usize> = (0..topo.num_nodes()).collect();
    let tunnels = TunnelSet::k_shortest(&topo, &edge_nodes, 4, 0.0);
    let mut cfg = GravityConfig::uniform(topo.num_nodes(), 1.0);
    cfg.edge_nodes = edge_nodes;
    let mut rng = StdRng::seed_from_u64(7);
    gravity_series(&cfg, &mut rng, count)
        .into_iter()
        .map(|tm| Instance::compile(&topo, &tunnels, &tm))
        .collect()
}

fn main() {
    let epochs: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("epochs must be a number"))
        .unwrap_or(1);
    if !harp_obs::init(Config {
        sink: SinkKind::Human,
        file: None,
        op_timing: true,
    }) {
        eprintln!("bench_profile: observability was already configured elsewhere; proceeding");
    }

    let instances = geant_instances(5);
    // Loss normalization by the optimal MLU is irrelevant to a timing
    // profile; 1.0 keeps the oracle out of the measured window.
    let train_refs: Vec<(&Instance, f64)> = instances[..4].iter().map(|i| (i, 1.0)).collect();
    let val_refs: Vec<(&Instance, f64)> = instances[4..].iter().map(|i| (i, 1.0)).collect();

    let (model, mut store) =
        zoo::build_model(zoo::Scheme::Harp { rau_iters: 7 }, train_refs[0].0, 3);
    let t0 = std::time::Instant::now();
    let report = train_model(
        &*model,
        &mut store,
        &train_refs,
        &val_refs,
        TrainConfig {
            epochs,
            batch_size: train_refs.len(),
            ..Default::default()
        },
        EvalOptions::default(),
    )
    .expect("bench_profile training run failed");
    let wall = t0.elapsed();

    println!(
        "\n=== bench_profile: {} epoch(s) of HARP on GEANT in {:.2?} (best val NormMLU {:.4}) ===",
        report.history.len(),
        wall,
        report.best_val
    );
    println!("\n--- span tree (wall time by stage) ---");
    print!("{}", harp_obs::span_report());

    let (counters, histograms) = harp_obs::metrics_snapshot();
    let mut op_hists: Vec<_> = histograms
        .iter()
        .filter(|h| h.name.starts_with("tape.fwd.") || h.name.starts_with("tape.bwd."))
        .collect();
    op_hists.sort_by_key(|h| std::cmp::Reverse(h.sum));
    println!("\n--- hottest tape ops (total ns, forward + backward attribution) ---");
    for h in op_hists.iter().take(16) {
        println!(
            "  {:<24} {:>9} calls  total {:>10.3}ms  mean {:>8.0}ns",
            h.name,
            h.count,
            h.sum as f64 / 1e6,
            h.mean()
        );
    }

    // Physical memory behind the op table: arena floats exclude reshape
    // views (unlike summed node values), and only gradients still waiting
    // to propagate or bound for a parameter count as live.
    println!("\n--- tape memory per backward pass (floats, mean / max) ---");
    for (name, label) in [
        ("tape.arena_floats", "value arena"),
        ("tape.bwd_peak_grad_floats", "peak live gradients"),
    ] {
        if let Some(h) = histograms.iter().find(|h| h.name == name) {
            println!(
                "  {:<32} {:>12.0} / {:>10}  over {} passes",
                label,
                h.mean(),
                h.max,
                h.count
            );
        }
    }

    println!("\n--- counters ---");
    for c in &counters {
        println!("  {:<28} {}", c.name, c.value);
    }
    harp_obs::flush();
}
