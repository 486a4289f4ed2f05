//! Scale-out control plane end-to-end: orchestrator shards behind the
//! cluster coordinator route by hostname, encode their shard in the
//! cookie, merge telemetry under `shard=<i>` labels — and survive the
//! loss of a whole pod (hosts, uplinks and the colocated store replica) at
//! k=32 within the heartbeat budget.

use std::sync::Arc;

use netalytics::cluster::{Cluster, ClusterConfig};
use netalytics::{
    EventKind, ResultBackend, SeriesKey, ShardedConfig, ShardedStore, StandingConfig,
};
use netalytics_apps::{sample_sink, ClientApp, Conversation, StaticHttpBehavior, TierApp};
use netalytics_data::DataTuple;
use netalytics_netsim::{HostIdx, SimDuration, SimTime};
use netalytics_packet::http;

/// top-k with a short re-emit window keeps the store fed continuously,
/// so standing windows have material and history reads have a prefix.
fn rank_query(host: &str) -> String {
    format!(
        "PARSE http_get FROM * TO {host}:80 LIMIT 5s SAMPLE * \
         PROCESS (top-k: k=5, w=50ms, key=url)"
    )
}

/// Web tier on `web`, a client on `web + 1` (same rack) driving one
/// conversation every 10 ms of virtual time, deployed through the
/// coordinator so each app lands on its owning shard's engine.
fn deploy_pair(cluster: &Cluster, name: &str, web: HostIdx, conversations: u64) {
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
                    SimTime::from_nanos(i * 10_000_000),
                    Conversation {
                        dst: (web_ip, 80),
                        requests: vec![http::build_get(
                            if i % 3 == 0 { "/hot" } else { "/cold" },
                            &server,
                        )],
                        tag: "c".into(),
                    },
                )
            })
            .collect();
        Box::new(ClientApp::new(schedule, sample_sink()))
    });
}

/// Ticks the cluster until every shard clock reaches `until`,
/// returning the summed reconcile work.
fn run_to(cluster: &Cluster, until: SimTime) -> usize {
    let mut replaced = 0;
    while cluster.now() < until {
        replaced += cluster
            .tick(cluster.heartbeat_interval(), SimDuration::from_millis(50))
            .replaced;
    }
    replaced
}

#[test]
fn cookies_encode_shards_and_names_route_submissions() {
    // k=8: 16 hosts per pod, shard 0 owns pods 0-3, shard 1 owns 4-7.
    let cluster = Cluster::new(ClusterConfig::default());
    assert_eq!(cluster.pod_bounds(), &[(0, 3), (4, 7)]);
    deploy_pair(&cluster, "weba", 1, 200);
    deploy_pair(&cluster, "webb", 65, 200);
    assert_eq!(cluster.shard_of_host(1), 0);
    assert_eq!(cluster.shard_of_host(65), 1);

    // Name routing beats load: shard 0 is empty, yet "webb" owns the
    // submission — placement must happen where the traffic is.
    let cb = cluster.submit(&rank_query("webb")).expect("submit b");
    assert_eq!(Cluster::shard_of_cookie(cb), 1);
    assert_eq!(cb >> 32, 1, "shard rides in the cookie's high bits");
    let ca = cluster.submit(&rank_query("weba")).expect("submit a");
    assert_eq!(Cluster::shard_of_cookie(ca), 0);

    // Both shards publish into one directory; summaries agree.
    let dir = cluster.directory();
    assert!(dir.get(ca).is_some() && dir.get(cb).is_some());
    assert_eq!(dir.list().len(), 2);
    let summaries = cluster.shard_summaries();
    assert_eq!(summaries.len(), 2);
    assert!(summaries.iter().all(|s| s.running == 1));

    // Cookie-addressed calls route without a lookup, and a kill on the
    // right shard yields the report with real traffic in it.
    run_to(&cluster, SimTime::from_nanos(300_000_000));
    let report = cluster.kill(cb).expect("query b was running");
    assert!(report.aggregator.tuples_in > 0, "traffic reached shard 1");
    assert!(cluster.kill(cb).is_none(), "second kill is a miss");
    assert_eq!(cluster.kill_all(), 1, "only query a was left");
}

#[test]
fn telemetry_report_labels_shard_series_and_merges_store_metrics() {
    let store = Arc::new(ShardedStore::in_memory(ShardedConfig::default()));
    let cluster = Cluster::new(ClusterConfig {
        store: Some(Arc::clone(&store)),
        ..ClusterConfig::default()
    });
    deploy_pair(&cluster, "weba", 1, 100);
    deploy_pair(&cluster, "webb", 65, 100);
    cluster.submit(&rank_query("weba")).expect("submit a");
    cluster.submit(&rank_query("webb")).expect("submit b");
    run_to(&cluster, SimTime::from_nanos(200_000_000));

    let snapshot = cluster.telemetry_report();
    let shard_label = |m: &netalytics_telemetry::MetricSnapshot, v: &str| {
        m.labels.iter().any(|(k, val)| k == "shard" && val == v)
    };
    // Per-shard series carry their shard label; both shards show up.
    for v in ["0", "1"] {
        assert!(
            snapshot.metrics.iter().any(|m| shard_label(m, v)),
            "merged snapshot has shard={v} series"
        );
    }
    // The replicated store's counters live in the coordinator registry
    // (registered before any shard built), unlabelled and exactly once.
    let appends: Vec<_> = snapshot
        .metrics
        .iter()
        .filter(|m| m.name == "store.sharded.appends")
        .collect();
    assert_eq!(appends.len(), 1, "one merged store append counter");
    assert!(appends[0].labels.is_empty());
    assert!(
        matches!(appends[0].value, netalytics_telemetry::MetricValue::Counter(n) if n > 0),
        "results were committed"
    );
    assert!(store.sharded_stats().appends > 0);
}

/// The headline chaos scenario at full scale: a k=32 fabric (8192
/// hosts, 32 pods) over 4 orchestrator shards and an 8-shard
/// replicated store. Killing pod 1 wholesale — all 256 hosts, their
/// uplinks and the colocated store primary — must re-place every
/// monitor and the aggregator of the pod's query within the heartbeat
/// budget, keep the surviving replica serving the full pre-fault
/// commit prefix, and leave every standing window cadence gap-free.
#[test]
fn pod_kill_at_k32_replaces_placements_and_preserves_history() {
    let hb = SimDuration::from_millis(10);
    let store = Arc::new(ShardedStore::in_memory(ShardedConfig {
        shards: 8,
        replication: 2,
        ..ShardedConfig::default()
    }));
    let cluster = Cluster::new(ClusterConfig {
        k: 32,
        shards: 4,
        heartbeat_interval: hb,
        store: Some(Arc::clone(&store)),
        ..ClusterConfig::default()
    });
    assert_eq!(cluster.pod_bounds(), &[(0, 7), (8, 15), (16, 23), (24, 31)]);

    // Victim workload in pod 1 (shard 0), survivor in pod 8 (shard 1);
    // 256 hosts per pod, so pod p starts at host 256·p.
    deploy_pair(&cluster, "webb", 257, 500);
    deploy_pair(&cluster, "weba", 2049, 500);
    let window = SimDuration::from_millis(100);
    let cb = cluster
        .submit_standing_as("default", &rank_query("webb"), StandingConfig::new(window))
        .expect("standing b");
    let ca = cluster
        .submit_standing_as("default", &rank_query("weba"), StandingConfig::new(window))
        .expect("standing a");
    assert_eq!(Cluster::shard_of_cookie(cb), 0);
    assert_eq!(Cluster::shard_of_cookie(ca), 1);
    let derived_b = SeriesKey::new(cb, "standing:sum:count");
    let derived_a = SeriesKey::new(ca, "standing:sum:count");
    // A probe series pinned (by group search) to store shard 1 — the
    // shard whose primary is colocated with pod 1 and dies with it.
    let probe = (0..)
        .map(|i| SeriesKey::new(cb, format!("probe{i}")))
        .find(|k| store.shard_of(k) == 1)
        .expect("some group hashes onto store shard 1");
    let probe_batch = netalytics_data::TupleBatch::from_tuples(
        (0..32u64)
            .map(|i| DataTuple::new(i, i * 1_000).with("v", i))
            .collect(),
    );
    store.append(&probe, &probe_batch).expect("probe commit");

    // Healthy warm-up: traffic flows, windows fire, commits replicate.
    run_to(&cluster, SimTime::from_nanos(300_000_000));
    let pre = store.range(&derived_b, 0, u64::MAX).expect("pre-fault");
    assert!(!pre.is_empty(), "windows materialized before the fault");
    let monitors_b = cluster.directory().get(cb).expect("directory").monitors;
    assert!(monitors_b >= 1);

    // Kill pod 1: every host behind its edge switches, every uplink,
    // and the colocated store primary (store shard 1, replica 0).
    let t_fail = cluster.now();
    let kill = cluster.fail_pod(1);
    assert_eq!((kill.pod, kill.shard), (1, 0));
    assert_eq!(kill.hosts, 256, "whole pod of hosts down");
    assert_eq!(kill.links, 256, "every host uplink down");
    assert_eq!(kill.store_replicas, 1, "colocated primary down");
    assert!(!store.replica_is_up(1, 0));

    // Recovery: reconcile re-places the dead pod's monitors and
    // aggregator onto surviving pods of the same shard, within the
    // detection budget (miss_threshold heartbeats).
    let budget =
        SimDuration::from_nanos(hb.as_nanos() * u64::from(cluster.failure_policy().miss_threshold));
    let mut replaced = 0;
    while replaced < monitors_b + 1 {
        replaced += cluster.tick(hb, SimDuration::from_millis(50)).replaced;
        assert!(
            cluster.now() <= t_fail + budget,
            "recovery exceeded the heartbeat budget: {replaced} of {} re-placed",
            monitors_b + 1
        );
    }
    let info = cluster.directory().get(cb).expect("directory");
    assert!(info.replacements >= (monitors_b + 1) as u64);
    let journal = cluster.journal().events();
    assert!(journal
        .iter()
        .any(|e| e.kind == EventKind::Failover && e.detail.contains("monitor re-placed")));
    assert!(journal
        .iter()
        .any(|e| e.kind == EventKind::Failover && e.detail.contains("aggregator failed over")));

    // Durability: reads fail over to the surviving replica and return
    // the full pre-fault commit prefix, byte for byte. The probe lives
    // on the store shard that lost its primary, so this read *must*
    // come from the follower.
    assert_eq!(store.leader_of(1), Some(1));
    let recovered = store.range(&probe, 0, u64::MAX).expect("probe read");
    assert_eq!(recovered.len(), 32, "full pre-fault commit prefix");
    assert_eq!(store.sharded_stats().down, 1, "exactly the dead primary");
    let post = store.range(&derived_b, 0, u64::MAX).expect("post-fault");
    assert!(post.len() >= pre.len());
    assert_eq!(&post[..pre.len()], &pre[..], "no committed window lost");

    // The survivor shard never noticed: its query kept its placements.
    assert_eq!(
        cluster.directory().get(ca).expect("directory").replacements,
        0
    );

    // Run well past the fault: both standing cadences stay gap-free —
    // consecutive windows share their boundary, including the empty
    // windows the victim emits once its traffic died with the pod.
    run_to(&cluster, SimTime::from_nanos(700_000_000));
    for series in [&derived_b, &derived_a] {
        let windows = store.range(series, 0, u64::MAX).expect("windows");
        assert!(windows.len() >= 6, "cadence kept firing");
        for pair in windows.windows(2) {
            assert_eq!(
                field(&pair[0], "window_end"),
                field(&pair[1], "window_start"),
                "gap-free cadence in {series:?}"
            );
        }
    }
    cluster.kill_all();
}

fn field(t: &DataTuple, name: &str) -> u64 {
    t.get(name)
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("materialized tuple carries {name}"))
}
