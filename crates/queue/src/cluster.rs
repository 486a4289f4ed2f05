//! The broker cluster: partitioned topics, keyed produce, consumer groups.
//!
//! Hot paths are batch-first: a producer appends one sealed column frame
//! per [`QueueCluster::produce_columns`] call and consumers drain with
//! [`QueueCluster::consume_batch`], so partition locks and offset
//! bookkeeping are paid once per batch instead of once per tuple. Column
//! frames are the only tuple framing on the queue. Topic
//! and group names are interned into [`TopicId`] / [`GroupId`] indices up
//! front; steady-state calls never hash or allocate a `String`.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use netalytics_data::ColumnBatch;
use netalytics_telemetry::{wall_now_ns, EventKind, Gauge, Histogram, Journal, MetricsRegistry};

use crate::log::{Message, PartitionLog, Pressure};

/// Configuration of a [`QueueCluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Number of broker processes (for placement/resource accounting and
    /// partition→broker assignment).
    pub brokers: usize,
    /// Partitions per topic.
    pub partitions: usize,
    /// Message capacity per partition.
    pub partition_capacity: usize,
    /// Replication factor: each partition is hosted by up to `replication`
    /// consecutive brokers starting at its hash-assigned one, and the first
    /// *live* replica acts as leader. This in-process reproduction models
    /// synchronous replication by collapsing the replica logs into one
    /// backing log, so failover changes only which broker is leader —
    /// retained messages and consumer offsets survive the switch.
    pub replication: usize,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            brokers: 1,
            partitions: 4,
            partition_capacity: 65_536,
            replication: 1,
        }
    }
}

/// Why a produce was rejected instead of appended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProduceError {
    /// Every replica of the target partition sits on a dead broker, so no
    /// leader can accept the write. Producers should back off and retry —
    /// the cluster re-elects as soon as a replica comes back.
    NoLeader {
        /// Topic the write was addressed to.
        topic: String,
        /// Partition (derived from the message key) that has no leader.
        partition: usize,
    },
}

impl fmt::Display for ProduceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProduceError::NoLeader { topic, partition } => {
                write!(f, "no live leader for {topic}/{partition}")
            }
        }
    }
}

impl std::error::Error for ProduceError {}

/// Interned handle for a topic name; cheap to copy and hash-free to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TopicId(usize);

/// Interned handle for a consumer-group name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupId(usize);

#[derive(Debug)]
struct Topic {
    name: String,
    partitions: Vec<Mutex<PartitionLog>>,
}

/// Per-(group, topic) consumption state: one offset per partition plus the
/// partition where the next scan starts, so small `max` values cannot
/// starve high-numbered partitions.
#[derive(Debug, Default)]
struct GroupCursor {
    offsets: Vec<u64>,
    next_start: usize,
}

/// Per-topic instrument handles, created once when the topic is interned
/// (or when a registry is attached) so the hot produce/consume paths touch
/// only atomics.
#[derive(Debug)]
struct TopicTelemetry {
    depth: Arc<Gauge>,
    dropped: Arc<Gauge>,
    bytes_in: Arc<Gauge>,
    produce_batch: Arc<Histogram>,
    consume_batch: Arc<Histogram>,
}

impl TopicTelemetry {
    fn register(metrics: &MetricsRegistry, topic: &str) -> Self {
        let l: &[(&str, &str)] = &[("topic", topic)];
        TopicTelemetry {
            depth: metrics.gauge("queue.depth", l),
            dropped: metrics.gauge("queue.dropped", l),
            bytes_in: metrics.gauge("queue.bytes_in", l),
            produce_batch: metrics.histogram("queue.produce_batch_size", l),
            consume_batch: metrics.histogram("queue.consume_batch_size", l),
        }
    }
}

/// Flight-recorder hookup plus drop counts at the previous sweep, so
/// shed activity journals as per-scrape burst deltas rather than one
/// event per dropped message.
#[derive(Debug, Default)]
struct ShedJournal {
    journal: Option<Arc<Journal>>,
    /// Indexed by `TopicId`.
    last_dropped: Vec<u64>,
    last_lost: u64,
}

#[derive(Debug, Default)]
struct Registry {
    topics: Vec<Arc<Topic>>,
    topic_ids: HashMap<String, TopicId>,
    groups: Vec<String>,
    group_ids: HashMap<String, GroupId>,
    /// Parallel to `topics`; populated only when a metrics registry is
    /// attached.
    telemetry: Vec<Arc<TopicTelemetry>>,
    metrics: Option<Arc<MetricsRegistry>>,
}

/// The Kafka-style aggregation layer (paper §3.2).
///
/// "Parsers, potentially distributed across multiple monitoring hosts,
/// send their data to one of the Kafka servers. ... data tuples can be
/// buffered by topic"; each unique parser gets its own topic.
///
/// Thread-safe: producers and consumers may run on different threads.
///
/// # Examples
///
/// ```
/// use netalytics_queue::{QueueCluster, QueueConfig};
/// use bytes::Bytes;
///
/// let q = QueueCluster::new(QueueConfig::default());
/// let t = q.topic_id("http_get");
/// let g = q.group_id("storm");
/// q.produce_to(t, 7, Bytes::from_static(b"batch"), 0);
/// let mut out = Vec::new();
/// assert_eq!(q.consume_batch(g, t, 10, &mut out), 1);
/// assert_eq!(q.consume_batch(g, t, 10, &mut out), 0, "offset advanced");
/// ```
#[derive(Debug)]
pub struct QueueCluster {
    config: QueueConfig,
    registry: RwLock<Registry>,
    /// (group, topic) → per-partition cursor.
    cursors: Mutex<HashMap<(GroupId, TopicId), GroupCursor>>,
    /// Per-broker liveness, toggled by [`QueueCluster::fail_broker`] /
    /// [`QueueCluster::restore_broker`].
    broker_up: Vec<AtomicBool>,
    /// Leadership overrides from [`QueueCluster::maybe_rebalance`]:
    /// topic name → per-partition preferred broker, superseding the
    /// static hash assignment. Leadership-only — all replicas share one
    /// backing log, so a move never copies data or disturbs offsets.
    assignments: RwLock<HashMap<String, Vec<Option<usize>>>>,
    /// Partition leaderships moved by the rebalancer.
    rebalance_moves: AtomicU64,
    /// Messages rejected because their partition had no live leader.
    failure_drops: AtomicU64,
    /// Shed-burst journaling state; touched only on scrape/attach.
    shed: Mutex<ShedJournal>,
}

impl QueueCluster {
    /// Creates a cluster with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `brokers`, `partitions`, or `replication` is zero.
    pub fn new(config: QueueConfig) -> Self {
        assert!(config.brokers > 0, "need at least one broker");
        assert!(config.partitions > 0, "need at least one partition");
        assert!(config.replication > 0, "need a replication factor of >= 1");
        QueueCluster {
            config,
            registry: RwLock::new(Registry::default()),
            cursors: Mutex::new(HashMap::new()),
            broker_up: (0..config.brokers).map(|_| AtomicBool::new(true)).collect(),
            assignments: RwLock::new(HashMap::new()),
            rebalance_moves: AtomicU64::new(0),
            failure_drops: AtomicU64::new(0),
            shed: Mutex::new(ShedJournal::default()),
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> QueueConfig {
        self.config
    }

    /// Interns `name`, creating the topic on first use.
    ///
    /// Producers and consumers should intern once and hold the returned
    /// [`TopicId`]; all batch APIs are keyed by id so the steady state does
    /// no string hashing.
    pub fn topic_id(&self, name: &str) -> TopicId {
        // cold path
        if let Some(&id) = self.registry.read().topic_ids.get(name) {
            return id;
        }
        let mut reg = self.registry.write(); // cold path
        if let Some(&id) = reg.topic_ids.get(name) {
            return id;
        }
        let id = TopicId(reg.topics.len());
        reg.topics.push(Arc::new(Topic {
            name: name.to_owned(),
            partitions: (0..self.config.partitions)
                .map(|_| Mutex::new(PartitionLog::new(self.config.partition_capacity)))
                .collect(),
        }));
        reg.topic_ids.insert(name.to_owned(), id);
        if let Some(metrics) = reg.metrics.clone() {
            reg.telemetry
                .push(Arc::new(TopicTelemetry::register(&metrics, name)));
        }
        id
    }

    /// Attaches a metrics registry: every existing and future topic gets
    /// `queue.depth` / `queue.dropped` / `queue.bytes_in` gauges plus
    /// produce/consume batch-size histograms under a `{topic=...}` label.
    /// Gauges are refreshed by [`QueueCluster::scrape`]; histograms are
    /// recorded inline on the batch paths (one atomic per batch).
    pub fn set_registry(&self, metrics: Arc<MetricsRegistry>) {
        let mut reg = self.registry.write(); // cold path
        reg.telemetry = reg
            .topics
            .iter()
            .map(|t| Arc::new(TopicTelemetry::register(&metrics, &t.name)))
            .collect();
        reg.metrics = Some(metrics);
    }

    fn telemetry_of(&self, id: TopicId) -> Option<Arc<TopicTelemetry>> {
        self.registry.read().telemetry.get(id.0).cloned() // per-batch lock
    }

    /// Attaches a flight recorder: each subsequent [`QueueCluster::scrape`]
    /// journals a `ShedBurst` event per topic whose drop count advanced
    /// since the previous sweep (and one for messages lost to leaderless
    /// partitions), so overload shows up as a timeline, not just a counter.
    pub fn attach_journal(&self, journal: Arc<Journal>) {
        self.shed.lock().journal = Some(journal); // cold path
    }

    /// Journals drop-count deltas since the previous sweep as `ShedBurst`
    /// events. No-op until [`QueueCluster::attach_journal`].
    fn journal_shed_bursts(&self) {
        let mut shed = self.shed.lock(); // cold path
        let Some(journal) = shed.journal.clone() else {
            return;
        };
        let ntopics = self.registry.read().topics.len(); // cold path
        shed.last_dropped.resize(ntopics, 0);
        for i in 0..ntopics {
            let id = TopicId(i);
            let dropped = self.dropped_of(id);
            let prev = shed.last_dropped[i];
            if dropped > prev {
                journal.record(
                    wall_now_ns(),
                    None,
                    EventKind::ShedBurst,
                    format!(
                        "topic {} shed {} msgs (total {dropped})",
                        self.topic_name(id),
                        dropped - prev
                    ),
                );
                shed.last_dropped[i] = dropped;
            }
        }
        let lost = self.lost_to_failure();
        if lost > shed.last_lost {
            journal.record(
                wall_now_ns(),
                None,
                EventKind::ShedBurst,
                format!(
                    "{} msgs lost to leaderless partitions (total {lost})",
                    lost - shed.last_lost
                ),
            );
            shed.last_lost = lost;
        }
    }

    /// Refreshes the per-topic gauges (and per-group lag gauges for every
    /// consumer cursor seen so far) from the logs. Call from a scrape
    /// loop; the hot paths never pay for gauge recomputation.
    pub fn scrape(&self) {
        self.journal_shed_bursts();
        let (metrics, ntopics) = {
            let reg = self.registry.read(); // cold path
            let Some(m) = reg.metrics.clone() else {
                return;
            };
            (m, reg.topics.len())
        };
        for i in 0..ntopics {
            let id = TopicId(i);
            let Some(tel) = self.telemetry_of(id) else {
                continue;
            };
            tel.depth.set(self.depth_of(id) as i64);
            tel.dropped.set(self.dropped_of(id) as i64);
            tel.bytes_in.set(self.bytes_in_of(id) as i64);
        }
        // cold path: scrape-time cursor snapshot
        let pairs: Vec<(GroupId, TopicId)> = self.cursors.lock().keys().copied().collect();
        let named: Vec<(GroupId, TopicId, String, String)> = {
            let reg = self.registry.read(); // cold path
            pairs
                .into_iter()
                .map(|(g, t)| (g, t, reg.groups[g.0].clone(), reg.topics[t.0].name.clone()))
                .collect()
        };
        for (g, tid, group, topic) in named {
            metrics
                .gauge("queue.lag", &[("group", &group), ("topic", &topic)])
                .set(self.lag_of(g, tid) as i64);
        }
    }

    /// Interns a consumer-group name.
    pub fn group_id(&self, name: &str) -> GroupId {
        // cold path
        if let Some(&id) = self.registry.read().group_ids.get(name) {
            return id;
        }
        let mut reg = self.registry.write(); // cold path
        if let Some(&id) = reg.group_ids.get(name) {
            return id;
        }
        let id = GroupId(reg.groups.len());
        reg.groups.push(name.to_owned());
        reg.group_ids.insert(name.to_owned(), id);
        id
    }

    /// The name a [`TopicId`] was interned from.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this cluster.
    pub fn topic_name(&self, id: TopicId) -> String {
        self.topic(id).name.clone()
    }

    fn topic(&self, id: TopicId) -> Arc<Topic> {
        Arc::clone(&self.registry.read().topics[id.0]) // per-batch lock
    }

    /// The broker that owns `partition` of `topic`: the rebalancer's
    /// override when one exists, else the stable hash assignment. With
    /// replication this is the *preferred* leader; the acting leader is
    /// [`QueueCluster::leader_of`].
    pub fn broker_of(&self, topic: &str, partition: usize) -> usize {
        if let Some(b) = self
            .assignments
            .read() // per-batch lock
            .get(topic)
            .and_then(|v| v.get(partition).copied().flatten())
        {
            return b;
        }
        self.static_broker_of(topic, partition)
    }

    /// The hash-derived assignment, ignoring rebalancer overrides.
    fn static_broker_of(&self, topic: &str, partition: usize) -> usize {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in topic.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        ((h as usize).wrapping_add(partition)) % self.config.brokers
    }

    /// The replica set of `partition`: up to `replication` distinct brokers
    /// starting at the preferred leader, wrapping around the cluster.
    pub fn replicas_of(&self, topic: &str, partition: usize) -> Vec<usize> {
        let base = self.broker_of(topic, partition);
        let n = self.config.replication.min(self.config.brokers);
        (0..n).map(|i| (base + i) % self.config.brokers).collect()
    }

    /// The acting leader of `partition`: the first live replica, or `None`
    /// when every replica is on a dead broker. Election is stateless and
    /// deterministic, so all producers and consumers agree without a
    /// coordination round — the paper's controller would drive the same
    /// re-election through ZooKeeper.
    pub fn leader_of(&self, topic: &str, partition: usize) -> Option<usize> {
        self.replicas_of(topic, partition)
            .into_iter()
            .find(|&b| self.broker_is_up(b))
    }

    /// Marks a broker dead: partitions it leads fail over to the next live
    /// replica (or reject writes if there is none). Idempotent.
    pub fn fail_broker(&self, broker: usize) {
        if let Some(b) = self.broker_up.get(broker) {
            b.store(false, Ordering::Relaxed);
        }
    }

    /// Brings a broker back; partitions preferring it regain their leader.
    pub fn restore_broker(&self, broker: usize) {
        if let Some(b) = self.broker_up.get(broker) {
            b.store(true, Ordering::Relaxed);
        }
    }

    /// Whether `broker` is currently alive (out-of-range indices are dead).
    pub fn broker_is_up(&self, broker: usize) -> bool {
        self.broker_up
            .get(broker)
            .is_some_and(|b| b.load(Ordering::Relaxed))
    }

    /// How many brokers are currently alive.
    pub fn alive_brokers(&self) -> usize {
        self.broker_up
            .iter()
            .filter(|b| b.load(Ordering::Relaxed))
            .count()
    }

    /// How many partition leaderships [`QueueCluster::maybe_rebalance`]
    /// has moved over this cluster's lifetime.
    pub fn rebalances(&self) -> u64 {
        self.rebalance_moves.load(Ordering::Relaxed)
    }

    /// One load-balancing pass: when the most loaded live broker holds
    /// more than twice the mean per-broker depth, the heaviest
    /// partition it leads moves to the least loaded live broker.
    /// Returns the number of leaderships moved (0 or 1).
    ///
    /// Moves are leadership-only — replicas share one backing log in
    /// this in-process reproduction, so retained messages and consumer
    /// offsets survive the switch exactly as they do broker failover.
    /// Call from the same scrape/reconcile loop that polls
    /// [`QueueCluster::pressure_of`]; each move increments the
    /// `queue.rebalances` counter and journals a `Failover` event.
    pub fn maybe_rebalance(&self) -> usize {
        if self.alive_brokers() < 2 {
            return 0;
        }
        let topics: Vec<Arc<Topic>> = self.registry.read().topics.to_vec(); // cold path
        let nbrokers = self.config.brokers;
        let mut load = vec![0u64; nbrokers];
        // (topic index, partition, depth) per leading broker.
        let mut led: Vec<Vec<(usize, usize, u64)>> = vec![Vec::new(); nbrokers];
        for (ti, t) in topics.iter().enumerate() {
            for (p, part) in t.partitions.iter().enumerate() {
                let depth = part.lock().len() as u64; // cold path
                let Some(leader) = self.leader_of(&t.name, p) else {
                    continue;
                };
                load[leader] += depth;
                led[leader].push((ti, p, depth));
            }
        }
        let live: Vec<usize> = (0..nbrokers).filter(|&b| self.broker_is_up(b)).collect();
        let mean = live.iter().map(|&b| load[b]).sum::<u64>() / live.len() as u64;
        let &hot = live.iter().max_by_key(|&&b| load[b]).expect("live checked");
        if mean == 0 || load[hot] <= mean.saturating_mul(2) {
            return 0;
        }
        let Some(&(ti, p, depth)) = led[hot].iter().max_by_key(|&&(_, _, d)| d) else {
            return 0;
        };
        let &cold = live.iter().min_by_key(|&&b| load[b]).expect("live checked");
        // Only move when it strictly improves the imbalance — otherwise
        // a single dominant partition would ping-pong between brokers
        // on every pass.
        if depth == 0 || cold == hot || load[cold] + depth >= load[hot] {
            return 0;
        }
        let name = topics[ti].name.clone();
        {
            let mut asg = self.assignments.write(); // cold path
            asg.entry(name.clone())
                .or_insert_with(|| vec![None; self.config.partitions])[p] = Some(cold);
        }
        self.rebalance_moves.fetch_add(1, Ordering::Relaxed);
        // cold path: once per rebalance move
        if let Some(metrics) = self.registry.read().metrics.clone() {
            metrics.counter("queue.rebalances", &[]).inc();
        }
        // cold path: once per rebalance move
        if let Some(journal) = self.shed.lock().journal.clone() {
            journal.record(
                wall_now_ns(),
                None,
                EventKind::Failover,
                format!("rebalanced {name}/{p} leadership {hot} -> {cold} (depth {depth})"),
            );
        }
        1
    }

    /// Messages rejected by the infallible produce paths because their
    /// partition had no live leader.
    pub fn lost_to_failure(&self) -> u64 {
        self.failure_drops.load(Ordering::Relaxed)
    }

    /// Produces one message to an interned topic. Returns the offset.
    ///
    /// If the target partition currently has no live leader the message is
    /// counted in [`QueueCluster::lost_to_failure`] and `0` is returned;
    /// producers that must not lose data should use
    /// [`QueueCluster::try_produce_to`] and retry with backoff.
    pub fn produce_to(&self, topic: TopicId, key: u64, payload: Bytes, ts_ns: u64) -> u64 {
        match self.try_produce_to(topic, key, payload, ts_ns) {
            Ok(offset) => offset,
            Err(ProduceError::NoLeader { .. }) => {
                self.failure_drops.fetch_add(1, Ordering::Relaxed);
                0
            }
        }
    }

    /// Produces one message, or reports that the partition has no live
    /// leader so the caller can back off and retry.
    pub fn try_produce_to(
        &self,
        topic: TopicId,
        key: u64,
        payload: Bytes,
        ts_ns: u64,
    ) -> Result<u64, ProduceError> {
        let t = self.topic(topic);
        let p = (key % t.partitions.len() as u64) as usize;
        if self.leader_of(&t.name, p).is_none() {
            return Err(ProduceError::NoLeader {
                topic: t.name.clone(),
                partition: p,
            });
        }
        let offset = t.partitions[p].lock().append(key, payload, ts_ns); // per-batch lock
        Ok(offset)
    }

    /// Produces one sealed columnar batch as a single message: the frame
    /// is encoded once, the destination partition's lock is taken once,
    /// and payload bytes are accounted once by the log append — one
    /// append per *batch*, not per tuple. Returns the offset.
    ///
    /// Rows (not frames) are recorded in the topic's
    /// `queue.produce_batch_size` histogram.
    ///
    /// # Errors
    ///
    /// [`ProduceError::NoLeader`] if the target partition has no live
    /// leader; the caller still owns `columns` and can retry.
    pub fn produce_columns(
        &self,
        topic: TopicId,
        key: u64,
        columns: &ColumnBatch,
        ts_ns: u64,
    ) -> Result<u64, ProduceError> {
        let rows = columns.rows() as u64;
        let payload = columns.encode();
        let offset = self.try_produce_to(topic, key, payload, ts_ns)?; // per-batch lock inside
        if let Some(tel) = self.telemetry_of(topic) {
            tel.produce_batch.record(rows);
        }
        Ok(offset)
    }

    /// Drains up to `max` messages into `out`, amortizing offset
    /// bookkeeping over the whole batch. Returns the number appended.
    ///
    /// Successive calls start their partition scan one partition further
    /// along, so with small `max` every partition is eventually visited
    /// first and none can be starved by its lower-numbered peers.
    ///
    /// Partitions whose replicas are all on dead brokers are skipped —
    /// their group offsets are retained cluster-side (the replicated
    /// `__consumer_offsets` of real Kafka), so consumption resumes exactly
    /// where it stopped once a replica returns.
    pub fn consume_batch(
        &self,
        group: GroupId,
        topic: TopicId,
        max: usize,
        out: &mut Vec<Message>,
    ) -> usize {
        let t = self.topic(topic);
        let nparts = t.partitions.len();
        let mut cursors = self.cursors.lock(); // per-batch lock
        let cur = cursors.entry((group, topic)).or_default();
        cur.offsets.resize(nparts, 0);
        let start = cur.next_start % nparts;
        cur.next_start = (start + 1) % nparts;
        let mut appended = 0;
        for i in 0..nparts {
            if appended >= max {
                break;
            }
            let p = (start + i) % nparts;
            if self.leader_of(&t.name, p).is_none() {
                continue;
            }
            let (msgs, next) = t.partitions[p].lock().read(cur.offsets[p], max - appended); // per-batch lock
            cur.offsets[p] = next;
            appended += msgs.len();
            out.extend(msgs);
        }
        drop(cursors);
        if appended > 0 {
            if let Some(tel) = self.telemetry_of(topic) {
                tel.consume_batch.record(appended as u64);
            }
        }
        appended
    }

    /// Total messages buffered across a topic's partitions. Topic-keyed
    /// by interned [`TopicId`] so telemetry polling loops never hash
    /// topic names.
    pub fn depth_of(&self, topic: TopicId) -> usize {
        let t = self.topic(topic);
        t.partitions.iter().map(|p| p.lock().len()).sum() // cold path
    }

    /// Messages dropped to overflow across a topic's partitions.
    pub fn dropped_of(&self, topic: TopicId) -> u64 {
        let t = self.topic(topic);
        t.partitions.iter().map(|p| p.lock().dropped()).sum() // cold path
    }

    /// Total payload bytes appended to a topic.
    pub fn bytes_in_of(&self, topic: TopicId) -> u64 {
        let t = self.topic(topic);
        t.partitions.iter().map(|p| p.lock().bytes_in()).sum() // cold path
    }

    /// The worst (most loaded) partition pressure of a topic — the signal
    /// sent back to monitors for adaptive sampling (§4.2). The
    /// adaptive-sampling feedback loop polls this every tick, so it is
    /// keyed by interned [`TopicId`] and never hashes topic names.
    pub fn pressure_of(&self, topic: TopicId) -> Pressure {
        let t = self.topic(topic);
        let mut worst = Pressure::Underloaded;
        for p in &t.partitions {
            // cold path
            match p.lock().pressure() {
                Pressure::Overloaded => return Pressure::Overloaded,
                Pressure::Normal => worst = Pressure::Normal,
                Pressure::Underloaded => {}
            }
        }
        worst
    }

    /// How far `group` lags behind the end of `topic`, in messages —
    /// id-keyed so hot-path telemetry polling doesn't re-intern the
    /// group and topic names on every scrape.
    pub fn lag_of(&self, g: GroupId, tid: TopicId) -> u64 {
        let t = self.topic(tid);
        let cursors = self.cursors.lock(); // cold path
        let cur = cursors.get(&(g, tid));
        let mut lag = 0;
        for (p, part) in t.partitions.iter().enumerate() {
            let part = part.lock(); // cold path
            let consumed = cur
                .and_then(|c| c.offsets.get(p).copied())
                .unwrap_or(0)
                .max(part.base_offset());
            lag += part.end_offset().saturating_sub(consumed);
        }
        lag
    }

    /// Names of existing topics (sorted).
    pub fn topics(&self) -> Vec<String> {
        let mut v: Vec<_> = self
            .registry
            .read() // cold path
            .topics
            .iter()
            .map(|t| t.name.clone())
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> QueueCluster {
        QueueCluster::new(QueueConfig {
            brokers: 2,
            partitions: 2,
            partition_capacity: 4,
            replication: 1,
        })
    }

    #[test]
    fn produce_consume_roundtrip() {
        let q = small();
        let (g, t) = (q.group_id("g"), q.topic_id("t"));
        for i in 0..4u64 {
            q.produce_to(t, i, Bytes::from(vec![i as u8]), i);
        }
        let mut out = Vec::new();
        assert_eq!(q.consume_batch(g, t, 10, &mut out), 4);
        assert_eq!(q.consume_batch(g, t, 10, &mut out), 0);
    }

    #[test]
    fn groups_are_independent() {
        let q = small();
        let t = q.topic_id("t");
        q.produce_to(t, 0, Bytes::from_static(b"m"), 0);
        let mut out = Vec::new();
        assert_eq!(q.consume_batch(q.group_id("g1"), t, 10, &mut out), 1);
        let mut out2 = Vec::new();
        assert_eq!(
            q.consume_batch(q.group_id("g2"), t, 10, &mut out2),
            1,
            "g2 has its own offsets"
        );
    }

    #[test]
    fn same_key_preserves_order() {
        let q = small();
        let (g, t) = (q.group_id("g"), q.topic_id("t"));
        for i in 0..8u64 {
            q.produce_to(t, 42, Bytes::from(vec![i as u8]), i);
        }
        // capacity 4 per partition: oldest 4 shed.
        let mut msgs = Vec::new();
        q.consume_batch(g, t, 10, &mut msgs);
        let payloads: Vec<u8> = msgs.iter().map(|m| m.payload[0]).collect();
        assert_eq!(payloads, vec![4, 5, 6, 7]);
        assert_eq!(q.dropped_of(t), 4);
    }

    #[test]
    fn pressure_reflects_fill() {
        let q = small();
        let (g, t) = (q.group_id("g"), q.topic_id("t"));
        assert_eq!(q.pressure_of(t), Pressure::Underloaded);
        for i in 0..8u64 {
            q.produce_to(t, i, Bytes::from_static(b"m"), 0);
        }
        assert_eq!(q.pressure_of(t), Pressure::Overloaded);
        let mut out = Vec::new();
        q.consume_batch(g, t, 100, &mut out);
        // Consuming does not remove messages (retention-based log), so
        // pressure stays until overwritten — matching Kafka semantics.
        assert_eq!(q.pressure_of(t), Pressure::Overloaded);
    }

    #[test]
    fn lag_accounts_for_shed_messages() {
        let q = small();
        let (g, t) = (q.group_id("g"), q.topic_id("t"));
        for _ in 0..4 {
            q.produce_to(t, 0, Bytes::from_static(b"m"), 0);
        }
        assert_eq!(q.lag_of(g, t), 4);
        let mut out = Vec::new();
        q.consume_batch(g, t, 2, &mut out);
        assert_eq!(q.lag_of(g, t), 2);
        // Overflow the partition; lag counts only retained + future.
        for _ in 0..6 {
            q.produce_to(t, 0, Bytes::from_static(b"m"), 0);
        }
        assert_eq!(q.lag_of(g, t), 4, "capped by retention window");
    }

    #[test]
    fn broker_assignment_is_stable_and_in_range() {
        let q = small();
        for p in 0..2 {
            let b = q.broker_of("http_get", p);
            assert!(b < 2);
            assert_eq!(b, q.broker_of("http_get", p));
        }
    }

    #[test]
    fn concurrent_produce_consume() {
        use std::sync::Arc;
        let q = Arc::new(QueueCluster::new(QueueConfig {
            brokers: 2,
            partitions: 4,
            partition_capacity: 100_000,
            replication: 1,
        }));
        let topic = q.topic_id("t");
        let producers: Vec<_> = (0..4)
            .map(|t| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        q.produce_to(topic, t * 1000 + i, Bytes::from_static(b"m"), i);
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let g = q.group_id("g");
        let mut total = 0;
        loop {
            let mut out = Vec::new();
            let got = q.consume_batch(g, topic, 512, &mut out);
            if got == 0 {
                break;
            }
            total += got;
        }
        assert_eq!(total, 4000);
    }

    #[test]
    fn interned_ids_are_stable_and_distinct() {
        let q = small();
        let a = q.topic_id("alpha");
        let b = q.topic_id("beta");
        assert_ne!(a, b);
        assert_eq!(a, q.topic_id("alpha"));
        assert_eq!(q.topic_name(a), "alpha");
        let g1 = q.group_id("g1");
        assert_eq!(g1, q.group_id("g1"));
        assert_ne!(g1, q.group_id("g2"));
    }

    #[test]
    fn columnar_frames_roundtrip_through_the_queue() {
        use netalytics_data::{DataTuple, TupleBatch};
        let q = QueueCluster::new(QueueConfig::default());
        let (g, t) = (q.group_id("storm"), q.topic_id("http_get"));
        let batch: TupleBatch = (0..40u64)
            .map(|i| {
                DataTuple::new(i, i)
                    .from_source("http_get")
                    .with("url", "/x")
                    .with("bytes", 64u64)
            })
            .collect();
        let cols = ColumnBatch::from_batch(&batch);
        q.produce_columns(t, 7, &cols, 1).unwrap();
        // Column frames are the only framing: a row frame does not decode.
        q.produce_to(t, 8, batch.encode(), 2);
        let mut msgs = Vec::new();
        assert_eq!(q.consume_batch(g, t, 10, &mut msgs), 2);
        msgs.sort_by_key(|m| m.ts_ns);
        let back = ColumnBatch::decode(&mut msgs[0].payload).unwrap();
        assert_eq!(back.to_batch(), batch);
        assert!(ColumnBatch::decode(&mut msgs[1].payload).is_err());
        assert_eq!(q.consume_batch(g, t, 10, &mut msgs), 0, "offsets advance");
    }

    #[test]
    fn produce_columns_reports_no_leader() {
        let q = QueueCluster::new(QueueConfig {
            brokers: 1,
            partitions: 1,
            partition_capacity: 16,
            replication: 1,
        });
        let t = q.topic_id("t");
        let cols = ColumnBatch::from_batch(&netalytics_data::TupleBatch::new());
        q.fail_broker(0);
        assert!(matches!(
            q.produce_columns(t, 0, &cols, 0),
            Err(ProduceError::NoLeader { .. })
        ));
        q.restore_broker(0);
        assert!(q.produce_columns(t, 0, &cols, 0).is_ok());
    }

    #[test]
    fn consume_rotation_prevents_partition_starvation() {
        // Regression: `consume` used to scan from partition 0 every call,
        // so with small `max` a busy partition 0 starved all others.
        let q = QueueCluster::new(QueueConfig {
            brokers: 1,
            partitions: 4,
            partition_capacity: 1024,
            replication: 1,
        });
        let (g, t) = (q.group_id("g"), q.topic_id("t"));
        // One message in every partition (keys 0..4 map to partitions 0..4).
        for k in 0..4u64 {
            q.produce_to(t, k, Bytes::from(vec![k as u8]), 0);
        }
        let mut seen = std::collections::BTreeSet::new();
        for round in 0..4 {
            // Keep partition 0 permanently non-empty, as a hot flow would.
            q.produce_to(t, 0, Bytes::from_static(b"hot"), 0);
            let mut msgs = Vec::new();
            q.consume_batch(g, t, 1, &mut msgs);
            assert_eq!(msgs.len(), 1, "round {round} should yield a message");
            seen.insert((msgs[0].key % 4) as u8);
        }
        assert_eq!(
            seen.len(),
            4,
            "4 single-message consumes must visit all 4 partitions, saw {seen:?}"
        );
    }

    #[test]
    fn telemetry_covers_existing_and_future_topics() {
        use netalytics_telemetry::MetricValue;
        let q = small();
        let early = q.topic_id("early"); // interned before the registry
        let metrics = Arc::new(MetricsRegistry::new());
        q.set_registry(Arc::clone(&metrics));
        let late = q.topic_id("late");
        // Six rows per topic, one frame per row so both partitions fill.
        let row = |i| {
            let t = netalytics_data::DataTuple::new(i, i);
            ColumnBatch::from_batch(&std::iter::once(t).collect())
        };
        for i in 0..6u64 {
            q.produce_columns(early, i, &row(i), i).unwrap();
            q.produce_columns(late, i, &row(i), i).unwrap();
        }
        let g = q.group_id("g");
        let mut out = Vec::new();
        q.consume_batch(g, late, 100, &mut out);
        q.scrape();
        let snap = metrics.snapshot();
        for topic in ["early", "late"] {
            match snap.get("queue.depth", &[("topic", topic)]) {
                // capacity 4 × 2 partitions, 6 keyed messages: all retained.
                Some(MetricValue::Gauge(d)) => assert_eq!(*d, 6, "{topic} depth"),
                other => panic!("queue.depth{{topic={topic}}} missing: {other:?}"),
            }
        }
        let produced = snap.histogram_merged("queue.produce_batch_size");
        assert_eq!(produced.count(), 12, "one sample per frame");
        assert_eq!(produced.sum(), 12, "rows, not frames, are recorded");
        match snap.get("queue.lag", &[("group", "g"), ("topic", "late")]) {
            Some(MetricValue::Gauge(lag)) => assert_eq!(*lag, 0),
            other => panic!("queue.lag missing: {other:?}"),
        }
        assert_eq!(q.depth_of(early), 6);
        assert_eq!(q.lag_of(g, late), 0);
    }

    #[test]
    fn shed_bursts_reach_the_flight_recorder_as_deltas() {
        let q = small();
        let journal = Arc::new(Journal::new(16));
        q.attach_journal(Arc::clone(&journal));
        let t = q.topic_id("t");
        // Capacity 4 per partition, 8 same-key messages: 4 shed.
        for i in 0..8u64 {
            q.produce_to(t, 0, Bytes::from(vec![i as u8]), i);
        }
        q.scrape();
        let events = journal.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::ShedBurst);
        assert!(events[0].detail.contains("shed 4"), "{}", events[0].detail);
        // No new drops: the next sweep journals nothing.
        q.scrape();
        assert_eq!(journal.events().len(), 1);
        // Another overflow journals only the delta.
        for i in 0..2u64 {
            q.produce_to(t, 0, Bytes::from(vec![i as u8]), i);
        }
        q.scrape();
        let events = journal.events();
        assert_eq!(events.len(), 2);
        assert!(events[1].detail.contains("shed 2"), "{}", events[1].detail);
    }

    #[test]
    fn consume_batch_appends_to_existing_buffer() {
        let q = small();
        let (g, t) = (q.group_id("g"), q.topic_id("t"));
        for i in 0..6u64 {
            q.produce_to(t, i, Bytes::from_static(b"m"), i);
        }
        let mut out = Vec::new();
        let first = q.consume_batch(g, t, 4, &mut out);
        assert_eq!(first, 4);
        let second = q.consume_batch(g, t, 4, &mut out);
        assert_eq!(second, 2);
        assert_eq!(out.len(), 6);
        assert_eq!(q.consume_batch(g, t, 4, &mut out), 0);
    }

    #[test]
    fn id_keyed_stats_cover_fresh_and_active_topics() {
        let q = small();
        let (g, t) = (q.group_id("g"), q.topic_id("t"));
        q.produce_to(t, 3, Bytes::from_static(b"m"), 0);
        assert_eq!(q.depth_of(t), 1);
        // A freshly interned topic reads as empty and underloaded.
        let fresh = q.topic_id("fresh");
        assert_eq!(q.depth_of(fresh), 0);
        assert_eq!(q.pressure_of(fresh), Pressure::Underloaded);
        let mut out = Vec::new();
        assert_eq!(q.consume_batch(g, t, 10, &mut out), 1);
        assert_eq!(q.lag_of(g, t), 0);
        assert_eq!(q.dropped_of(t), 0);
        assert_eq!(q.bytes_in_of(t), 1);
    }

    #[test]
    fn fault_replica_sets_are_distinct_consecutive_brokers() {
        let q = QueueCluster::new(QueueConfig {
            brokers: 3,
            partitions: 2,
            partition_capacity: 16,
            replication: 2,
        });
        for p in 0..2 {
            let reps = q.replicas_of("t", p);
            assert_eq!(reps.len(), 2);
            assert_ne!(reps[0], reps[1]);
            assert_eq!(reps[0], q.broker_of("t", p), "preferred leader first");
            assert_eq!(q.leader_of("t", p), Some(reps[0]));
        }
        // Replication clamps to the broker count.
        let wide = QueueCluster::new(QueueConfig {
            brokers: 2,
            partitions: 1,
            partition_capacity: 16,
            replication: 5,
        });
        assert_eq!(wide.replicas_of("t", 0).len(), 2);
    }

    #[test]
    fn fault_failover_reelects_and_resumes_offsets() {
        let q = QueueCluster::new(QueueConfig {
            brokers: 2,
            partitions: 1,
            partition_capacity: 64,
            replication: 2,
        });
        let (g, t) = (q.group_id("g"), q.topic_id("t"));
        for i in 0..6u64 {
            q.produce_to(t, 0, Bytes::from(vec![i as u8]), i);
        }
        let mut out = Vec::new();
        assert_eq!(q.consume_batch(g, t, 3, &mut out), 3);
        // Kill the preferred leader: the follower is elected, writes and
        // reads keep flowing, and the group resumes from its old offset.
        let leader = q.leader_of("t", 0).unwrap();
        q.fail_broker(leader);
        let new_leader = q.leader_of("t", 0).unwrap();
        assert_ne!(new_leader, leader);
        assert!(q.try_produce_to(t, 0, Bytes::from_static(b"x"), 6).is_ok());
        out.clear();
        assert_eq!(q.consume_batch(g, t, 100, &mut out), 4);
        assert_eq!(out[0].payload[0], 3, "resumed at offset 3, not 0");
        assert_eq!(q.lost_to_failure(), 0);
        // Restoring the preferred leader hands leadership back.
        q.restore_broker(leader);
        assert_eq!(q.leader_of("t", 0), Some(leader));
    }

    #[test]
    fn fault_no_leader_rejects_and_counts() {
        let q = QueueCluster::new(QueueConfig {
            brokers: 2,
            partitions: 1,
            partition_capacity: 64,
            replication: 1,
        });
        let (g, t) = (q.group_id("g"), q.topic_id("t"));
        q.produce_to(t, 0, Bytes::from_static(b"before"), 0);
        let leader = q.leader_of("t", 0).unwrap();
        q.fail_broker(leader);
        assert_eq!(q.leader_of("t", 0), None, "replication=1: no failover");
        assert_eq!(
            q.try_produce_to(t, 0, Bytes::from_static(b"x"), 1),
            Err(ProduceError::NoLeader {
                topic: "t".into(),
                partition: 0,
            })
        );
        // The infallible path counts instead of silently succeeding.
        q.produce_to(t, 0, Bytes::from_static(b"x"), 1);
        assert_eq!(q.lost_to_failure(), 1);
        // Consumers skip the dead partition but keep their offsets.
        let mut out = Vec::new();
        assert_eq!(q.consume_batch(g, t, 10, &mut out), 0);
        q.restore_broker(leader);
        assert_eq!(q.consume_batch(g, t, 10, &mut out), 1);
        assert_eq!(&out[0].payload[..], b"before");
    }

    #[test]
    fn rebalance_moves_heaviest_partition_off_the_hot_broker() {
        let q = QueueCluster::new(QueueConfig {
            brokers: 3,
            partitions: 4,
            partition_capacity: 1024,
            replication: 1,
        });
        let metrics = Arc::new(MetricsRegistry::new());
        q.set_registry(Arc::clone(&metrics));
        let journal = Arc::new(Journal::new(16));
        q.attach_journal(Arc::clone(&journal));
        let (g, t) = (q.group_id("g"), q.topic_id("t"));
        // 4 partitions over 3 brokers: exactly one broker leads two of
        // them (consecutive assignment wraps once).
        let mut by_broker: HashMap<usize, Vec<usize>> = HashMap::new();
        for p in 0..4 {
            by_broker.entry(q.broker_of("t", p)).or_default().push(p);
        }
        let (&hot, parts) = by_broker.iter().find(|(_, v)| v.len() == 2).unwrap();
        // Load only the hot broker's partitions (key k → partition k%4).
        for &p in parts {
            for i in 0..6u64 {
                q.produce_to(t, p as u64, Bytes::from(vec![i as u8]), i);
            }
        }
        assert_eq!(q.maybe_rebalance(), 1, "2x-mean skew triggers a move");
        assert_eq!(q.rebalances(), 1);
        let moved: Vec<usize> = parts
            .iter()
            .copied()
            .filter(|&p| q.broker_of("t", p) != hot)
            .collect();
        assert_eq!(moved.len(), 1, "exactly one leadership moved off {hot}");
        assert!(q.broker_is_up(q.broker_of("t", moved[0])));
        // Leadership-only move: every retained message is still served.
        let mut out = Vec::new();
        assert_eq!(q.consume_batch(g, t, 100, &mut out), 12);
        // Now balanced (6 / 6 / 0): no further moves.
        assert_eq!(q.maybe_rebalance(), 0);
        assert_eq!(q.rebalances(), 1);
        use netalytics_telemetry::MetricValue;
        match metrics.snapshot().get("queue.rebalances", &[]) {
            Some(MetricValue::Counter(n)) => assert_eq!(*n, 1),
            other => panic!("queue.rebalances missing: {other:?}"),
        }
        let events = journal.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Failover);
        assert!(
            events[0].detail.contains("rebalanced"),
            "{}",
            events[0].detail
        );
    }

    #[test]
    fn rebalance_needs_two_live_brokers_and_real_improvement() {
        let q = QueueCluster::new(QueueConfig {
            brokers: 2,
            partitions: 2,
            partition_capacity: 1024,
            replication: 2,
        });
        let t = q.topic_id("t");
        for i in 0..32u64 {
            q.produce_to(t, 0, Bytes::from_static(b"m"), i);
        }
        q.fail_broker(1);
        assert_eq!(q.maybe_rebalance(), 0, "one live broker: nowhere to go");
        q.restore_broker(1);

        // One dominant partition: moving it only moves the hotspot, so
        // the improvement guard keeps leadership put.
        let q = QueueCluster::new(QueueConfig {
            brokers: 3,
            partitions: 1,
            partition_capacity: 1024,
            replication: 1,
        });
        let t = q.topic_id("t");
        for i in 0..32u64 {
            q.produce_to(t, 0, Bytes::from_static(b"m"), i);
        }
        let before = q.broker_of("t", 0);
        assert_eq!(q.maybe_rebalance(), 0);
        assert_eq!(q.broker_of("t", 0), before);
        assert_eq!(q.rebalances(), 0);
    }

    #[test]
    fn fault_alive_broker_accounting() {
        let q = QueueCluster::new(QueueConfig {
            brokers: 3,
            partitions: 1,
            partition_capacity: 4,
            replication: 1,
        });
        assert_eq!(q.alive_brokers(), 3);
        q.fail_broker(1);
        q.fail_broker(1); // idempotent
        assert_eq!(q.alive_brokers(), 2);
        assert!(!q.broker_is_up(1));
        assert!(!q.broker_is_up(99), "out of range is dead");
        q.restore_broker(1);
        assert_eq!(q.alive_brokers(), 3);
    }
}
