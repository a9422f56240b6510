//! Quickstart: train FedLPS on a small synthetic non-IID federation with a
//! heterogeneous device fleet and print the headline metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Eight environment variables support CI's determinism gate (and general
//! scripting): `FEDLPS_PARALLELISM` sets the round-loop shard count
//! (default 1 = serial, 0 = all cores), `FEDLPS_ROUND_MODE` picks the
//! execution semantics (`sync` = the default synchronous barrier,
//! `deadline` = budgeted rounds with over-selection, `async` =
//! staleness-aware asynchronous rounds; `examples/straggler_rounds.rs`
//! compares all three), `FEDLPS_SELECTION` picks the client-selection policy
//! (`uniform` = the default, `utility` = Oort-style utility selection,
//! `power` = power-of-choice; see `examples/utility_selection.rs`),
//! `FEDLPS_PACKED` toggles physically packed submodel execution (`1` =
//! packed, the default; `0` = masked-dense), `FEDLPS_TOPOLOGY` picks the aggregation topology (`flat` = the default
//! direct uploads, `two-tier` = zone aggregators; see
//! `examples/hierarchical_fleet.rs`), `FEDLPS_AVAILABILITY` picks the
//! device-availability model (`iid` = the default per-dispatch coin flip,
//! `diurnal` = seeded day/night waves, `burst` = zone-correlated outage
//! windows; see `examples/diurnal_fleet.rs`), `FEDLPS_QUORUM` sets the
//! cohort quorum fraction in `(0, 1]` (default 1.0 = full barrier) and
//! `FEDLPS_METRICS_JSON` names a file to which the full `RunResult` is
//! written as JSON. Runs at any parallelism level (serial at 1, a thread
//! pool above), with packing on or off, under either topology and under any
//! availability model are bit-identical for the same seed *in every mode and
//! under every policy*, which the CI matrix enforces by diffing the JSON of
//! serial/sharded and packed/masked runs across modes, policies, topologies
//! and availability models.

use fedlps::prelude::*;

fn main() {
    // 1. A synthetic MNIST-like federation: 16 clients, pathological non-IID
    //    (2 classes per client), with devices sampled from the paper's five
    //    capability tiers.
    // Panic on a set-but-unparsable value: a silent fall-back to serial
    // would make CI's determinism gate compare two identical serial runs.
    let parallelism: usize = match std::env::var("FEDLPS_PARALLELISM") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("FEDLPS_PARALLELISM must be a shard count, got {v:?}")),
        Err(_) => 1,
    };
    // Same contract for the round mode: an unknown value must not silently
    // fall back to the synchronous default.
    let round_mode = match std::env::var("FEDLPS_ROUND_MODE") {
        Ok(v) => match v.as_str() {
            "sync" | "synchronous" => RoundMode::Synchronous,
            "deadline" => RoundMode::deadline(0.004, 2),
            "async" | "asynchronous" => RoundMode::asynchronous(4, 0.6),
            other => panic!("FEDLPS_ROUND_MODE must be sync|deadline|async, got {other:?}"),
        },
        Err(_) => RoundMode::Synchronous,
    };
    // ... and for the selection policy.
    let selection = match std::env::var("FEDLPS_SELECTION") {
        Ok(v) => SelectionKind::from_name(&v)
            .unwrap_or_else(|| panic!("FEDLPS_SELECTION must be uniform|utility|power, got {v:?}")),
        Err(_) => SelectionKind::Uniform,
    };
    let packed_execution = match std::env::var("FEDLPS_PACKED") {
        Ok(v) => match v.as_str() {
            "1" | "on" | "true" => true,
            "0" | "off" | "false" => false,
            other => panic!("FEDLPS_PACKED must be 0|1, got {other:?}"),
        },
        Err(_) => true,
    };
    let topology = match std::env::var("FEDLPS_TOPOLOGY") {
        Ok(v) => Topology::from_name(&v)
            .unwrap_or_else(|| panic!("FEDLPS_TOPOLOGY must be flat|two-tier, got {v:?}")),
        Err(_) => Topology::Flat,
    };
    let availability = match std::env::var("FEDLPS_AVAILABILITY") {
        Ok(v) => AvailabilityModel::from_name(&v)
            .unwrap_or_else(|| panic!("FEDLPS_AVAILABILITY must be iid|diurnal|burst, got {v:?}")),
        Err(_) => AvailabilityModel::Iid,
    };
    let quorum: f64 = match std::env::var("FEDLPS_QUORUM") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("FEDLPS_QUORUM must be a fraction in (0, 1], got {v:?}")),
        Err(_) => 1.0,
    };
    let scenario = ScenarioConfig::small(DatasetKind::MnistLike).with_clients(16);
    let fl_config = FlConfig {
        rounds: 20,
        clients_per_round: 5,
        local_iterations: 5,
        batch_size: 20,
        eval_every: 2,
        parallelism,
        round_mode,
        selection,
        packed_execution,
        topology,
        availability,
        quorum,
        ..FlConfig::default()
    };
    let env = FlEnv::from_scenario(&scenario, HeterogeneityLevel::High, fl_config);

    println!(
        "federation: {} clients, {} classes, model '{}' with {} parameters",
        env.num_clients(),
        env.data.num_classes,
        env.arch.name(),
        env.arch.param_count()
    );

    // 2. Run FedLPS: learnable importance-driven sparse patterns + P-UCBV
    //    adaptive sparse ratios.
    let sim = Simulator::new(env);
    let mut fedlps = fedlps::core::FedLps::for_env(sim.env());
    let result = sim.run(&mut fedlps);

    // 3. Report what the paper's Table I reports: mean personalized accuracy,
    //    total FLOPs and total simulated time.
    println!("\n== {} on {} ==", result.algorithm, result.dataset);
    println!(
        "final mean personalized accuracy: {:.2}%",
        result.final_accuracy * 100.0
    );
    println!(
        "best accuracy observed:           {:.2}%",
        result.best_accuracy * 100.0
    );
    println!(
        "total training FLOPs:             {:.2}e9",
        result.total_flops / 1e9
    );
    println!(
        "total simulated time:             {:.2}s",
        result.total_time
    );
    println!(
        "mean sparse ratio used:           {:.2}",
        result.mean_sparse_ratio()
    );
    println!(
        "round-loop parallelism:           {} shard(s)",
        sim.env().config.effective_parallelism()
    );
    println!(
        "round mode:                       {}",
        sim.env().config.round_mode.name()
    );
    println!(
        "selection policy:                 {}",
        sim.env().config.selection.name()
    );
    println!(
        "submodel execution:               {}",
        if sim.env().config.packed_execution {
            "packed (physically small submodels)"
        } else {
            "masked-dense"
        }
    );
    println!(
        "aggregation topology:             {}",
        sim.env().config.topology.name()
    );
    println!(
        "availability model:               {}",
        sim.env().config.availability.name()
    );
    if sim.env().config.quorum < 1.0 {
        println!(
            "cohort quorum:                    {:.2} ({} early closes, {} drops)",
            sim.env().config.quorum,
            result.total_quorum_closes(),
            result.total_straggler_drops()
        );
    }
    if let Some(cache) = fedlps.mask_cache() {
        println!(
            "mask cache:                       {} hits / {} misses ({:.0}% hit rate, {:.0}% after round 3)",
            cache.hits(),
            cache.misses(),
            cache.hit_rate() * 100.0,
            result.mask_cache_hit_rate_from(3) * 100.0
        );
    }

    println!("\nper-client sparse ratios proposed by P-UCBV after training:");
    for (k, ratio) in fedlps.proposed_ratios().iter().enumerate() {
        let cap = sim.env().capability(k);
        println!("  client {k:>2}: capability {cap:>6.4} -> ratio {ratio:.3}");
    }

    // Machine-readable trace for CI's determinism gate.
    if let Ok(path) = std::env::var("FEDLPS_METRICS_JSON") {
        let json = serde_json::to_string(&result).expect("RunResult serializes");
        std::fs::write(&path, json).expect("metrics JSON is writable");
        println!("\nwrote metrics JSON to {path}");
    }
}
