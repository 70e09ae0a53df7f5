//! Golden gradient pin: one full forward, `mlu_loss` and `backward_into`
//! per scheme (HARP, DOTE, TEAL) on a fixed seeded instance, with an FNV-1a
//! hash over the bits of every parameter gradient.
//!
//! The hashes were generated on the copying tape (before reshape became a
//! zero-copy view and the reverse walk began moving gradient buffers), so
//! this test holds every later tape change to bitwise-equal gradients.
//!
//! The pinned values hold for one build target: the workspace builds with
//! `target-cpu=native`, and the kernels use hardware FMA when the target
//! has it, which changes rounding. On a host whose build target differs
//! (no FMA, say), regenerate the pins from a known-good commit with
//! `cargo test -p harp-core --test golden_grads -- --nocapture`, which
//! prints each computed hash.

use harp_core::{mlu_loss, Dote, Harp, HarpConfig, Instance, SplitModel, Teal, TealConfig};
use harp_paths::TunnelSet;
use harp_tensor::{ParamStore, Tape};
use harp_topology::Topology;
use harp_traffic::TrafficMatrix;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A 6-node ring with two chords and uneven capacities; every ordered pair
/// carries a seeded demand, so every flow has 3 tunnels and a nonzero
/// gradient path.
fn golden_instance() -> Instance {
    let mut topo = Topology::new(6);
    let links = [
        (0, 1, 10.0),
        (1, 2, 8.0),
        (2, 3, 12.0),
        (3, 4, 6.0),
        (4, 5, 10.0),
        (5, 0, 9.0),
        (0, 3, 5.0),
        (1, 4, 7.0),
    ];
    for (a, b, cap) in links {
        topo.add_link(a, b, cap).unwrap();
    }
    let nodes: Vec<usize> = (0..6).collect();
    let tunnels = TunnelSet::k_shortest(&topo, &nodes, 3, 0.0);
    let mut rng = StdRng::seed_from_u64(2024);
    let mut tm = TrafficMatrix::zeros(6);
    for s in 0..6 {
        for d in 0..6 {
            if s != d {
                tm.set_demand(s, d, rng.gen_range(0.1..3.0));
            }
        }
    }
    Instance::compile(&topo, &tunnels, &tm)
}

/// FNV-1a (64-bit) over the little-endian bytes of every gradient
/// element's `to_bits()`, parameters in registration order.
fn grad_hash(model: &dyn SplitModel, store: &ParamStore, inst: &Instance) -> (u64, usize) {
    let mut grads = store.grad_buffer();
    let mut tape = Tape::new();
    let splits = model.forward(&mut tape, store, inst);
    let loss = mlu_loss(&mut tape, splits, inst);
    tape.backward_into(loss, &mut grads);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut nonzero = 0;
    for id in store.ids() {
        for &g in grads.grad(id) {
            nonzero += usize::from(g != 0.0);
            for byte in g.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    println!(
        "{}: gradient hash {h:#018x} ({nonzero} nonzero)",
        model.name()
    );
    (h, nonzero)
}

fn assert_pinned(model: &dyn SplitModel, store: &ParamStore, inst: &Instance, pinned: u64) {
    let (h, nonzero) = grad_hash(model, store, inst);
    assert!(
        nonzero > 0,
        "{}: all-zero gradients pin nothing",
        model.name()
    );
    assert_eq!(
        h,
        pinned,
        "{}: parameter gradients changed bits (got {h:#018x})",
        model.name()
    );
}

#[test]
fn harp_gradients_match_golden_bits() {
    let inst = golden_instance();
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(7);
    let cfg = HarpConfig {
        gnn_layers: 2,
        gnn_hidden: 6,
        d_model: 8,
        settrans_layers: 2,
        heads: 2,
        d_ff: 12,
        mlp_hidden: 8,
        rau_iters: 3,
    };
    let harp = Harp::new(&mut store, &mut rng, cfg);
    assert_pinned(&harp, &store, &inst, 0xc6b3_d9ba_9325_3a74);
}

#[test]
fn dote_gradients_match_golden_bits() {
    let inst = golden_instance();
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(11);
    let dote = Dote::new(&mut store, &mut rng, &inst, &[16, 16]);
    assert_pinned(&dote, &store, &inst, 0xa18e_3baa_5c76_b397);
}

#[test]
fn teal_gradients_match_golden_bits() {
    let inst = golden_instance();
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(13);
    let teal = Teal::new(
        &mut store,
        &mut rng,
        TealConfig {
            hidden: 8,
            layers: 3,
            policy_hidden: 8,
            tunnels_per_flow: 3,
        },
    );
    assert_pinned(&teal, &store, &inst, 0x32fb_ba1c_7347_4076);
}
