//! Golden-trace determinism: the packet-lifecycle trace of a fixed
//! configuration must be byte-identical across runs and across freshly
//! rebuilt nodes, and must match the committed golden file.
//!
//! Regenerate the golden after an intentional behavior change with:
//!
//! ```text
//! SIMNET_UPDATE_GOLDEN=1 cargo test -q --test golden_trace
//! ```

use simnet::harness::summary::{run_phases, Phases};
use simnet::harness::tracerun::TracedRun;
use simnet::harness::{
    run_traced, run_traced_with, AppSpec, RunConfig, Simulation, SoftwareClient, SystemConfig,
    TraceOpts,
};
use simnet::sim::fault::{FaultInjector, FaultPlan};
use simnet::sim::tick::us;
use simnet::sim::trace::{canonical_text, trace_hash, Component};
use simnet::stack::DpdkStack;

/// A short, light TestPMD point: no warm-up, a 250 µs window (the link's
/// one-way latency is 100 µs, so the window must cover inject → arrival →
/// echo) at 2 Gbps of 1518 B frames — a few hundred trace lines, small
/// enough to commit.
fn golden_point() -> TracedRun {
    let cfg = SystemConfig::gem5();
    let rc = RunConfig {
        phases: Phases {
            warmup: 0,
            measure: us(250),
        },
    };
    run_traced(
        &cfg,
        &AppSpec::TestPmd,
        1518,
        2.0,
        rc,
        1 << 16,
        Component::ALL_MASK,
    )
}

/// The golden point with a fault plan installed: the same workload as
/// [`golden_point`] plus a BER high enough to corrupt a few frames and a
/// periodic DMA latency burst — chaos that must still be byte-for-byte
/// reproducible from the fault seed.
fn faulted_point(fault_seed: u64) -> TracedRun {
    let cfg = SystemConfig::gem5();
    let rc = RunConfig {
        phases: Phases {
            warmup: 0,
            measure: us(250),
        },
    };
    let plan = FaultPlan::parse("link.ber=3e-5;dma.burst=+500ns/2us@20us").unwrap();
    run_traced_with(
        &cfg,
        &AppSpec::TestPmd,
        1518,
        2.0,
        rc,
        TraceOpts {
            capacity: 1 << 16,
            mask: Component::ALL_MASK,
            faults: FaultInjector::new(plan, fault_seed),
            ..Default::default()
        },
    )
}

/// A line-rate-ish TestPMD point where the burst transport genuinely
/// coalesces (hundreds of multi-packet bursts per window): 30 Gbps of
/// 1518 B frames over the same 250 µs window. `burst` selects the
/// coalescing factor; `fault_seed` optionally installs the same chaos
/// plan as [`faulted_point`].
fn burst_point(burst: usize, fault_seed: Option<u64>) -> TracedRun {
    let cfg = SystemConfig::gem5();
    let rc = RunConfig {
        phases: Phases {
            warmup: 0,
            measure: us(250),
        },
    };
    let faults = match fault_seed {
        Some(seed) => {
            let plan = FaultPlan::parse("link.ber=3e-5;dma.burst=+500ns/2us@20us").unwrap();
            FaultInjector::new(plan, seed)
        }
        None => FaultInjector::disabled(),
    };
    run_traced_with(
        &cfg,
        &AppSpec::TestPmd,
        1518,
        30.0,
        rc,
        TraceOpts {
            capacity: 1 << 20,
            mask: Component::ALL_MASK,
            faults,
            burst,
        },
    )
}

/// The multi-queue golden point: the same light TestPMD workload as
/// [`golden_point`], but on a 2-queue NIC with 2 worker lcores. On a
/// multi-queue NIC the synthetic generator emits RSS-hashable UDP
/// frames whose source ports round-robin one port per queue, so the
/// stream genuinely spreads across both queues — the golden pins the
/// full multi-queue event schedule: per-queue DMA kicks, both lcores'
/// software wakeups, partitioned FIFOs, and the interleaved echo
/// stream.
fn mq_point() -> TracedRun {
    let cfg = SystemConfig::gem5().with_queues(2).with_lcores(2);
    let rc = RunConfig {
        phases: Phases {
            warmup: 0,
            measure: us(250),
        },
    };
    run_traced(
        &cfg,
        &AppSpec::TestPmd,
        1518,
        2.0,
        rc,
        1 << 16,
        Component::ALL_MASK,
    )
}

/// The sharded-memcached multi-queue golden: 4 RSS queues, 4 worker
/// lcores, the client steering each request's source port onto the
/// queue owning its key's shard — real cross-queue traffic, committed
/// byte-for-byte.
fn mq_memcached_point() -> TracedRun {
    let cfg = SystemConfig::gem5().with_queues(4).with_lcores(4);
    let rc = RunConfig {
        phases: Phases {
            warmup: 0,
            measure: us(400),
        },
    };
    run_traced(
        &cfg,
        &AppSpec::MemcachedDpdk,
        0,
        200.0,
        rc,
        1 << 18,
        Component::ALL_MASK,
    )
}

/// The dual-mode golden point (Fig. 1a): the light TestPMD workload of
/// [`golden_point`], driven by a software client on a fully simulated
/// Drive Node instead of the hardware load generator, so both nodes'
/// NIC, memory and stack events and both wire directions are pinned.
/// Returns the canonical trace text.
fn dual_point() -> String {
    let cfg = SystemConfig::gem5();
    let spec = AppSpec::TestPmd;
    let (stack, app) = spec.instantiate(cfg.seed);
    let client = Box::new(SoftwareClient::new(spec.loadgen(&cfg, 1518, 2.0)));
    let drive_stack = Box::new(DpdkStack::new(cfg.seed ^ 0xD21E));
    let mut sim = Simulation::dual_mode(&cfg, stack, app, drive_stack, client);
    sim.enable_trace(1 << 16, Component::ALL_MASK);
    run_phases(
        &mut sim,
        Phases {
            warmup: 0,
            measure: us(250),
        },
    );
    assert_eq!(
        sim.tracer().evicted(),
        0,
        "dual golden trace must fit the ring"
    );
    canonical_text(&sim.take_trace())
}

#[test]
fn trace_is_deterministic_across_rebuilt_nodes() {
    // Each call assembles a brand-new node (NIC, memory, stack, loadgen)
    // from the same `SystemConfig`; nothing may leak between runs.
    let a = golden_point();
    let b = golden_point();
    assert!(!a.events.is_empty(), "trace captured events");
    assert_eq!(a.evicted, 0, "golden trace must fit the ring");
    assert_eq!(
        a.canonical_text(),
        b.canonical_text(),
        "canonical traces of identical configs must be byte-identical"
    );
    assert_eq!(a.hash(), b.hash());
    assert_eq!(trace_hash(&a.events), a.hash());
}

#[test]
fn trace_matches_committed_golden_file() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/testpmd_small.trace"
    );
    let run = golden_point();
    let text = run.canonical_text();

    if std::env::var_os("SIMNET_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
        std::fs::write(path, &text).unwrap();
        return;
    }

    let golden = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("cannot read {path}: {e}; run with SIMNET_UPDATE_GOLDEN=1 to create it")
    });
    assert_eq!(
        text, golden,
        "trace diverged from the golden file; if the change is intentional, \
         regenerate with SIMNET_UPDATE_GOLDEN=1 cargo test --test golden_trace"
    );
}

/// Chaos determinism: the faulted event stream is a pure function of the
/// fault seed. Two freshly rebuilt simulators with the same seed emit
/// byte-identical canonical traces; a different seed perturbs them.
#[test]
fn faulted_trace_is_deterministic_and_seed_sensitive() {
    let a = faulted_point(11);
    let b = faulted_point(11);
    assert!(!a.events.is_empty());
    assert_eq!(a.evicted, 0, "faulted golden trace must fit the ring");
    assert_eq!(
        a.canonical_text(),
        b.canonical_text(),
        "same fault seed must reproduce the chaos byte-for-byte"
    );
    assert_eq!(a.hash(), b.hash());
    assert!(
        a.fault_counts.total() > 0,
        "the faulted plan must actually inject faults: {:?}",
        a.fault_counts
    );
    assert_eq!(
        a.fault_counts.total(),
        b.fault_counts.total(),
        "fault counters are part of the deterministic surface"
    );

    let c = faulted_point(12);
    assert_ne!(
        a.hash(),
        c.hash(),
        "a different fault seed must produce a different trace"
    );
}

/// The faulted trace also has a committed golden: fault injection sites
/// may not drift (new draws, reordered draws) without a deliberate
/// regeneration.
#[test]
fn faulted_trace_matches_committed_golden_file() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/testpmd_faulted.trace"
    );
    let run = faulted_point(11);
    let text = run.canonical_text();
    assert!(
        text.contains("stage=fault"),
        "faulted golden must contain fault events"
    );

    if std::env::var_os("SIMNET_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
        std::fs::write(path, &text).unwrap();
        return;
    }

    let golden = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("cannot read {path}: {e}; run with SIMNET_UPDATE_GOLDEN=1 to create it")
    });
    assert_eq!(
        text, golden,
        "faulted trace diverged from the golden file; if the change is \
         intentional, regenerate with SIMNET_UPDATE_GOLDEN=1 cargo test --test golden_trace"
    );
}

/// The burst-path golden: a point hot enough that deliveries travel as
/// real multi-packet bursts, committed at the default coalescing factor.
/// The same point re-run with `--burst=1` (the exact scalar schedule)
/// must produce the identical bytes — the golden file itself witnesses
/// the tentpole's equivalence claim.
#[test]
fn burst_trace_matches_committed_golden_file() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/testpmd_burst.trace"
    );
    let run = burst_point(32, None);
    assert_eq!(run.evicted, 0, "burst golden trace must fit the ring");
    let text = run.canonical_text();

    if std::env::var_os("SIMNET_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
        std::fs::write(path, &text).unwrap();
        return;
    }

    let golden = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("cannot read {path}: {e}; run with SIMNET_UPDATE_GOLDEN=1 to create it")
    });
    assert_eq!(
        text, golden,
        "burst trace diverged from the golden file; if the change is \
         intentional, regenerate with SIMNET_UPDATE_GOLDEN=1 cargo test --test golden_trace"
    );

    let scalar = burst_point(1, None);
    assert_eq!(
        scalar.canonical_text(),
        golden,
        "the scalar (--burst=1) schedule must reproduce the burst golden byte-for-byte"
    );
}

/// The faulted burst golden: the same hot point with the chaos plan
/// installed, so fault draws land mid-burst. Both the batched and the
/// scalar schedule must reproduce the committed bytes, including every
/// `stage=fault` line.
#[test]
fn faulted_burst_trace_matches_committed_golden_file() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/testpmd_burst_faulted.trace"
    );
    let run = burst_point(32, Some(11));
    assert_eq!(run.evicted, 0, "faulted burst golden must fit the ring");
    let text = run.canonical_text();
    assert!(
        text.contains("stage=fault"),
        "faulted burst golden must contain fault events"
    );
    assert!(
        run.fault_counts.total() > 0,
        "the plan must actually inject faults: {:?}",
        run.fault_counts
    );

    if std::env::var_os("SIMNET_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
        std::fs::write(path, &text).unwrap();
        return;
    }

    let golden = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("cannot read {path}: {e}; run with SIMNET_UPDATE_GOLDEN=1 to create it")
    });
    assert_eq!(
        text, golden,
        "faulted burst trace diverged from the golden file; if the change is \
         intentional, regenerate with SIMNET_UPDATE_GOLDEN=1 cargo test --test golden_trace"
    );

    let scalar = burst_point(1, Some(11));
    assert_eq!(
        scalar.canonical_text(),
        golden,
        "the scalar (--burst=1) schedule must reproduce the faulted burst \
         golden byte-for-byte, fault draws included"
    );
}

/// The multi-queue golden: the 2-queue/2-lcore TestPMD schedule may not
/// drift (event reordering, extra wakeups, changed DMA kicks) without a
/// deliberate regeneration — and it must differ from the single-queue
/// golden, or the multi-queue configuration is silently inert.
#[test]
fn mq_trace_matches_committed_golden_file() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/testpmd_mq.trace");
    let run = mq_point();
    assert_eq!(run.evicted, 0, "mq golden trace must fit the ring");
    let text = run.canonical_text();

    if std::env::var_os("SIMNET_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
        std::fs::write(path, &text).unwrap();
        return;
    }

    let golden = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("cannot read {path}: {e}; run with SIMNET_UPDATE_GOLDEN=1 to create it")
    });
    assert_eq!(
        text, golden,
        "multi-queue trace diverged from the golden file; if the change is \
         intentional, regenerate with SIMNET_UPDATE_GOLDEN=1 cargo test --test golden_trace"
    );

    // A second rebuilt node must reproduce it, and the single-queue
    // golden point must not (the queues change the schedule).
    assert_eq!(mq_point().canonical_text(), golden);
    assert_ne!(
        golden_point().canonical_text(),
        golden,
        "the 2-queue schedule must differ from the single-queue golden"
    );
}

/// The sharded-memcached multi-queue golden: 4 queues of genuinely
/// RSS-spread request traffic, byte-for-byte reproducible.
#[test]
fn mq_memcached_trace_matches_committed_golden_file() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/memcached_mq.trace"
    );
    let run = mq_memcached_point();
    assert_eq!(run.evicted, 0, "mq memcached golden must fit the ring");
    let text = run.canonical_text();

    if std::env::var_os("SIMNET_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
        std::fs::write(path, &text).unwrap();
        return;
    }

    let golden = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("cannot read {path}: {e}; run with SIMNET_UPDATE_GOLDEN=1 to create it")
    });
    assert_eq!(
        text, golden,
        "sharded-memcached multi-queue trace diverged from the golden file; if \
         the change is intentional, regenerate with SIMNET_UPDATE_GOLDEN=1 \
         cargo test --test golden_trace"
    );
    assert_eq!(mq_memcached_point().canonical_text(), golden);
}

/// The dual-mode golden: the node-to-node wire in both directions, the
/// Drive Node's software client and the test node's echo, byte for
/// byte.
#[test]
fn dual_trace_matches_committed_golden_file() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/dual_testpmd.trace"
    );
    let text = dual_point();

    if std::env::var_os("SIMNET_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
        std::fs::write(path, &text).unwrap();
        return;
    }

    let golden = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("cannot read {path}: {e}; run with SIMNET_UPDATE_GOLDEN=1 to create it")
    });
    assert_eq!(
        text, golden,
        "dual-mode trace diverged from the golden file; if the change is \
         intentional, regenerate with SIMNET_UPDATE_GOLDEN=1 cargo test --test golden_trace"
    );
    assert_eq!(dual_point(), golden);
}

#[test]
fn trace_filter_restricts_components() {
    let cfg = SystemConfig::gem5();
    let rc = RunConfig {
        phases: Phases {
            warmup: 0,
            measure: us(250),
        },
    };
    let mask = Component::Nic.bit();
    let run = run_traced(&cfg, &AppSpec::TestPmd, 1518, 2.0, rc, 1 << 16, mask);
    assert!(!run.events.is_empty());
    assert!(run.events.iter().all(|e| e.component == Component::Nic));
}
