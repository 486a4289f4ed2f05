//! Scale-out control-plane bench: what sharding the orchestrator buys
//! at data-center scale.
//!
//! Part 1 — placement at scale: a k=32 fat tree (8192 hosts, 512
//! racks) under a ~1M-flow staggered workload; times Algorithm-1
//! monitor placement plus Algorithm-2 analytics placement over the
//! monitored subset.
//!
//! Part 2 — live control plane: a [`Cluster`] running the same query
//! load at 1, 2 and 4 orchestrator shards; times a full
//! tick-and-reconcile pass (traffic simulation + heartbeat scan +
//! repair) and a pod-kill recovery on each layout.
//!
//! Gate: pod-kill recovery completes within three heartbeats of
//! virtual time on every layout. The 4-shard over 1-shard wall-clock
//! ratio of that recovery is reported, not gated. Recovery is where
//! sharding pays even on one core — failure detection and re-placement
//! scan only the owning shard's pod range, not the whole fabric —
//! whereas steady-state passes are bound by total event volume and
//! only spread across cores when the machine has them.
//!
//! Run with: `cargo run --release -p netalytics-bench --bin scaleout_sim`
//! (add `--quick` for a k=8 smoke run). The recorded table is
//! `results/scaleout_sim.txt`.

use std::fmt::Write as _;
use std::time::Instant;

use netalytics::cluster::{Cluster, ClusterConfig};
use netalytics_apps::{sample_sink, ClientApp, Conversation, StaticHttpBehavior, TierApp};
use netalytics_netsim::{SimDuration, SimTime};
use netalytics_packet::http;
use netalytics_placement::{
    generate_workload, place_analytics, place_monitors, AnalyticsStrategy, DataCenter,
    MonitorStrategy, PlacementParams, WorkloadSpec,
};

fn rank_query(host: &str) -> String {
    format!(
        "PARSE http_get FROM * TO {host}:80 LIMIT 100s SAMPLE * \
         PROCESS (top-k: k=5, w=50ms, key=url)"
    )
}

/// Web tier + client pair on two adjacent hosts, driven through the
/// coordinator so the apps land on the owning shard's engine.
fn deploy_pair(cluster: &Cluster, name: &str, web: u32, conversations: u64, cadence_ns: u64) {
    cluster.name_host(name, web);
    let web_ip = cluster.host_ip(web);
    cluster.deploy_app_on(web, || {
        Box::new(TierApp::new(80, Box::new(StaticHttpBehavior::new(1.0, 3))))
    });
    let server = name.to_string();
    cluster.deploy_app_on(web + 1, move || {
        let schedule = (0..conversations)
            .map(|i| {
                (
                    SimTime::from_nanos(i * cadence_ns),
                    Conversation {
                        dst: (web_ip, 80),
                        requests: vec![http::build_get("/r", &server)],
                        tag: "c".into(),
                    },
                )
            })
            .collect();
        Box::new(ClientApp::new(schedule, sample_sink()))
    });
}

/// Part 1: placement latency on the cold path — workload synthesis,
/// monitor placement, analytics placement — at fabric scale.
fn placement_phase(report: &mut String, k: u32, total_flows: usize, monitored: usize) {
    let spec = WorkloadSpec {
        total_flows,
        ..WorkloadSpec::default()
    };
    let mut dc = DataCenter::randomized(k, PlacementParams::default(), 7);
    let t = Instant::now();
    let flows = generate_workload(&dc.tree, &spec, 7);
    let gen_ms = t.elapsed().as_secs_f64() * 1e3;
    // Monitor the heaviest `monitored` flows — the query's selection.
    let mut idx: Vec<usize> = (0..flows.len()).collect();
    idx.sort_by_key(|&i| std::cmp::Reverse(flows[i].rate_bps));
    let picked: Vec<_> = idx[..monitored.min(flows.len())]
        .iter()
        .map(|&i| flows[i])
        .collect();
    let t = Instant::now();
    let monitors = place_monitors(&mut dc, &picked, MonitorStrategy::Greedy, 7);
    let mon_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let analytics = place_analytics(&mut dc, &monitors, AnalyticsStrategy::Greedy, 7);
    let ana_ms = t.elapsed().as_secs_f64() * 1e3;
    let _ = writeln!(
        report,
        "placement @ k={k} ({} hosts, {} racks): {} flows generated in {gen_ms:.0} ms",
        dc.tree.num_hosts(),
        dc.tree.num_edges(),
        flows.len(),
    );
    let _ = writeln!(
        report,
        "  {} monitored flows -> {} monitors in {mon_ms:.0} ms \
         ({} uncoverable), {} aggregators in {ana_ms:.0} ms",
        picked.len(),
        monitors.num_monitors(),
        monitors.unplaced.len(),
        analytics.num_aggregators(),
    );
}

struct ControlRow {
    shards: usize,
    pass_ms: f64,
    recovery_sim_ms: f64,
    recovery_wall_ms: f64,
    replaced: usize,
}

/// Part 2: one layout of the live control plane — `queries` standing
/// workload pairs spread over the pods, timed over `passes` full
/// tick-and-reconcile rounds, then a pod kill timed to recovery.
fn control_phase(
    k: u32,
    shards: usize,
    queries: usize,
    conversations: u64,
    cadence_ns: u64,
) -> ControlRow {
    let hb = SimDuration::from_millis(10);
    let grace = SimDuration::from_millis(50);
    let cluster = Cluster::new(ClusterConfig {
        k,
        shards,
        heartbeat_interval: hb,
        ..ClusterConfig::default()
    });
    let pods = k;
    let hosts_per_pod = (k / 2) * (k / 2);
    // One pair per query, round-robin over pods (several per pod at
    // small k), at distinct rack-aligned host offsets.
    let mut in_pod = vec![0u32; pods as usize];
    let mut cookies = Vec::new();
    for q in 0..queries {
        let pod = (q as u32 * pods / queries as u32) % pods;
        let slot = in_pod[pod as usize];
        in_pod[pod as usize] += 1;
        let web = pod * hosts_per_pod + slot * (k / 2) + 1;
        let name = format!("w{q:02}");
        deploy_pair(&cluster, &name, web, conversations, cadence_ns);
        cookies.push(cluster.submit(&rank_query(&name)).expect("submit"));
    }

    // Warm-up, then time full passes: traffic + heartbeats + reconcile.
    while cluster.now() < SimTime::from_nanos(100_000_000) {
        cluster.tick(hb, grace);
    }
    let passes = 10;
    let t = Instant::now();
    for _ in 0..passes {
        cluster.tick(hb, grace);
    }
    let pass_ms = t.elapsed().as_secs_f64() * 1e3 / passes as f64;

    // Pod kill: take out the first query's pod and time re-placement.
    let victim_pod = 0;
    let monitors: usize = cluster.directory().get(cookies[0]).expect("dir").monitors;
    let t_fail = cluster.now();
    let wall = Instant::now();
    cluster.fail_pod(victim_pod);
    let mut replaced = 0;
    // Every control-plane element in the pod must come back; queries
    // in other pods may lose colocated elements too, so count all.
    while replaced < monitors + 1 {
        replaced += cluster.tick(hb, grace).replaced;
        assert!(
            cluster.now() <= t_fail + SimDuration::from_millis(200),
            "recovery stalled: {replaced} replaced"
        );
    }
    let recovery_sim_ms = (cluster.now() - t_fail).as_nanos() as f64 / 1e6;
    let recovery_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    cluster.kill_all();
    ControlRow {
        shards,
        pass_ms,
        recovery_sim_ms,
        recovery_wall_ms,
        replaced,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Full mode drives enough traffic per shard (64 queries, clients
    // firing every 500 us) that the partitioned emulation work — not
    // the fixed fan-out overhead — dominates a tick.
    let (k, flows, monitored, queries, conversations, cadence_ns) = if quick {
        (8, 100_000, 10_000, 8, 500, 5_000_000)
    } else {
        (32, 1_000_000, 100_000, 64, 2_000, 500_000)
    };
    let mut report = String::new();
    let _ = writeln!(
        report,
        "scale-out control plane — placement latency and shard scaling\n"
    );
    eprintln!("placement phase (k={k}, {flows} flows) ...");
    placement_phase(&mut report, k, flows, monitored);

    let _ = writeln!(
        report,
        "\nlive control plane @ k={k}: {queries} standing queries, \
         full tick-and-reconcile pass (10 ms heartbeat)\n"
    );
    let _ = writeln!(
        report,
        "{:>7} {:>14} {:>17} {:>18} {:>9}",
        "shards", "pass (ms)", "recovery (sim ms)", "recovery (wall ms)", "replaced"
    );
    let mut rows = Vec::new();
    for shards in [1usize, 2, 4] {
        eprintln!("control phase: {shards} shard(s) ...");
        let row = control_phase(k, shards, queries, conversations, cadence_ns);
        let _ = writeln!(
            report,
            "{:>7} {:>14.2} {:>17.1} {:>18.2} {:>9}",
            row.shards, row.pass_ms, row.recovery_sim_ms, row.recovery_wall_ms, row.replaced
        );
        rows.push(row);
    }

    let single = rows[0].recovery_wall_ms;
    let multi = rows.last().expect("rows").recovery_wall_ms;
    let speedup = single / multi.max(1e-9);
    let _ = writeln!(
        report,
        "\n4-shard speedup over single shard: {speedup:.2}x (pod-kill recovery, wall)"
    );
    let budget_ok = rows
        .iter()
        .all(|r| r.recovery_sim_ms <= 3.0 * 10.0 + f64::EPSILON);
    let _ = writeln!(
        report,
        "pod-kill recovery within the 3-heartbeat budget on every layout: {budget_ok}"
    );

    print!("{report}");
    assert!(budget_ok, "GATE: recovery exceeded the heartbeat budget");
}
