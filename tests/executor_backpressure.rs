//! Backpressure accounting on the sharded executor's bounded rings, at
//! one shard and at three (the sink's single instance lives on shard 0
//! either way; the extra shards must not disturb the ledger).
//!
//! A deliberately slow terminal bolt is fed faster than it can drain.
//! Under [`BackpressurePolicy::Block`] the producer must stall until the
//! ring has room, so every offered tuple comes out the other end.
//! Under [`BackpressurePolicy::Shed`] full rings drop whole slabs
//! instead, and every dropped tuple must be counted: delivered + shed is
//! exactly what was offered, with nothing lost twice or uncounted.

use std::time::Duration;

use netalytics_data::{DataTuple, TupleBatch};
use netalytics_stream::{
    build_executor, BackpressurePolicy, Bolt, ExecutorMode, Grouping, ShardedConfig, SourceRef,
    Topology,
};

/// Echoes each input after sleeping — a terminal bolt that cannot keep up.
struct SlowEcho {
    delay: Duration,
}

impl Bolt for SlowEcho {
    fn execute(&mut self, tuple: &DataTuple, out: &mut Vec<DataTuple>) {
        std::thread::sleep(self.delay);
        out.push(tuple.clone());
    }
}

fn slow_topology(delay: Duration) -> Topology {
    let mut b = Topology::builder("slow-sink");
    let sink = b.add_bolt("slow_echo", 1, move || Box::new(SlowEcho { delay }));
    b.wire(SourceRef::Spout, sink, Grouping::Shuffle);
    b.build().expect("valid topology")
}

const SHARDS: [usize; 2] = [1, 3];

fn run(
    shards: usize,
    policy: BackpressurePolicy,
    slabs: u64,
    per_slab: u64,
    delay: Duration,
) -> (u64, u64, u64) {
    let topo = slow_topology(delay);
    let mut exec = build_executor(
        &topo,
        ExecutorMode::Sharded(ShardedConfig {
            shards,
            ring_capacity: 2,
            backpressure: policy,
            ..Default::default()
        }),
    );
    for s in 0..slabs {
        let batch: TupleBatch = (0..per_slab)
            .map(|i| DataTuple::new(s * per_slab + i, 0).with("n", s * per_slab + i))
            .collect();
        exec.offer(batch);
    }
    let delivered = exec.stop(1).len() as u64;
    (delivered, exec.shed_tuples(), exec.processed())
}

#[test]
fn block_policy_delivers_every_tuple() {
    // 30 slabs of 4 into a capacity-2 ring behind a 1 ms/tuple bolt:
    // without blocking, the producer would overrun the ring instantly.
    let offered = 30 * 4;
    for shards in SHARDS {
        let (delivered, shed, processed) = run(
            shards,
            BackpressurePolicy::Block,
            30,
            4,
            Duration::from_millis(1),
        );
        assert_eq!(processed, offered, "[{shards} shards]");
        assert_eq!(shed, 0, "[{shards} shards] Block never drops");
        assert_eq!(
            delivered, offered,
            "[{shards} shards] every offered tuple reaches the sink"
        );
    }
}

#[test]
fn shed_policy_accounts_for_every_tuple() {
    // Offer far faster than the sink drains; the ring must overflow.
    let offered = 40 * 8;
    for shards in SHARDS {
        let (delivered, shed, processed) = run(
            shards,
            BackpressurePolicy::Shed,
            40,
            8,
            Duration::from_millis(5),
        );
        assert_eq!(processed, offered, "[{shards} shards]");
        assert!(
            shed > 0,
            "[{shards} shards] a 5 ms/tuple sink behind a capacity-2 ring must shed"
        );
        assert_eq!(
            delivered + shed,
            offered,
            "[{shards} shards] exact accounting: delivered ({delivered}) + shed ({shed}) == offered"
        );
    }
}

#[test]
fn shed_accounting_holds_for_a_fast_sink() {
    // With no artificial delay the sink mostly keeps up; however many
    // slabs slip through versus shed, the ledger must still balance.
    let offered = 10 * 4;
    for shards in SHARDS {
        let (delivered, shed, processed) =
            run(shards, BackpressurePolicy::Shed, 10, 4, Duration::ZERO);
        assert_eq!(processed, offered, "[{shards} shards]");
        assert_eq!(delivered + shed, offered, "[{shards} shards]");
    }
}
