//! [`QueueWriter`]: the monitor-side output interface.
//!
//! Parser pipelines ship sealed [`ColumnBatch`]es; the writer encodes each
//! batch once as a column frame and appends it to an interned topic,
//! spreading successive batches across partitions round-robin (the
//! paper's monitors likewise write batches to Kafka, §5.2 "Output
//! Interface"). Because it implements
//! [`BatchSink`], the monitor layer needs no queue-specific code and no
//! intermediate shipper threads.
//!
//! When a partition loses its leader (broker failure), the writer does not
//! silently drop: it re-keys the batch toward another partition and retries
//! with capped exponential backoff per [`RetryPolicy`], only counting the
//! batch as lost once the policy is exhausted.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use netalytics_data::{BatchSink, ColumnBatch, SinkClosed, TupleBatch};

use crate::cluster::{ProduceError, QueueCluster, TopicId};

/// How [`QueueWriter`] behaves when the target partition has no live
/// leader: capped exponential backoff between bounded retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total produce attempts per batch (first try included).
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles each subsequent retry.
    pub base_backoff: Duration,
    /// Ceiling on the per-retry sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(10),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (0-based), doubling from
    /// `base_backoff` and saturating at `max_backoff`.
    pub fn backoff(&self, retry: u32) -> Duration {
        let exp = self.base_backoff.saturating_mul(1u32 << retry.min(16));
        exp.min(self.max_backoff)
    }
}

/// A [`BatchSink`] that encodes batches into a [`QueueCluster`] topic as
/// column frames — the one framing the queue carries.
///
/// Shareable across producer threads: partition keys come from one atomic
/// sequence, and the topic id is interned at construction so the hot path
/// never touches the name registry.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use netalytics_data::{BatchSink, DataTuple, TupleBatch};
/// use netalytics_queue::{QueueCluster, QueueConfig, QueueWriter};
///
/// let cluster = Arc::new(QueueCluster::new(QueueConfig::default()));
/// let writer = QueueWriter::new(Arc::clone(&cluster), "http_get");
/// writer
///     .ship(TupleBatch::from_tuples(vec![DataTuple::new(1, 0)]))
///     .unwrap();
/// assert_eq!(cluster.depth_of(writer.topic()), 1);
/// ```
#[derive(Debug)]
pub struct QueueWriter {
    cluster: Arc<QueueCluster>,
    topic: TopicId,
    retry: RetryPolicy,
    seq: AtomicU64,
    batches: AtomicU64,
    tuples: AtomicU64,
    retries: AtomicU64,
    batches_lost: AtomicU64,
}

impl QueueWriter {
    /// Creates a writer appending to `topic` (interned immediately), with
    /// the default [`RetryPolicy`].
    pub fn new(cluster: Arc<QueueCluster>, topic: &str) -> Self {
        let topic = cluster.topic_id(topic);
        QueueWriter {
            cluster,
            topic,
            retry: RetryPolicy::default(),
            seq: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            tuples: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            batches_lost: AtomicU64::new(0),
        }
    }

    /// Replaces the retry policy (builder-style, before sharing).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Batches shipped so far.
    pub fn batches_shipped(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Tuples shipped so far.
    pub fn tuples_shipped(&self) -> u64 {
        self.tuples.load(Ordering::Relaxed)
    }

    /// Produce retries forced by leaderless partitions.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Batches abandoned after the retry policy was exhausted.
    pub fn batches_lost(&self) -> u64 {
        self.batches_lost.load(Ordering::Relaxed)
    }

    /// The interned topic this writer appends to.
    pub fn topic(&self) -> TopicId {
        self.topic
    }
}

impl BatchSink for QueueWriter {
    /// Row batches (the pipeline's row lane) are transposed and shipped
    /// as column frames, trace context included.
    fn ship(&self, batch: TupleBatch) -> Result<(), SinkClosed> {
        self.ship_columns(ColumnBatch::from_batch(&batch))
    }

    /// Ships a sealed columnar batch without ever materializing rows:
    /// one [`QueueCluster::produce_columns`] call per attempt (one
    /// partition lock, bytes accounted once), retrying with backoff on
    /// broker failure.
    ///
    /// Each retry draws a fresh sequence key, steering the batch toward a
    /// different partition whose replicas may still be alive. A batch that
    /// exhausts the policy is counted in
    /// [`QueueWriter::batches_lost`] — bounded, observable loss — and the
    /// sink stays open.
    fn ship_columns(&self, columns: ColumnBatch) -> Result<(), SinkClosed> {
        if columns.is_empty() {
            return Ok(());
        }
        let ts_ns = columns.timestamps().last().copied().unwrap_or(0);
        let n = columns.rows() as u64;
        for attempt in 0..self.retry.max_attempts.max(1) {
            let key = self.seq.fetch_add(1, Ordering::Relaxed);
            match self
                .cluster
                .produce_columns(self.topic, key, &columns, ts_ns)
            {
                Ok(_) => {
                    self.batches.fetch_add(1, Ordering::Relaxed);
                    self.tuples.fetch_add(n, Ordering::Relaxed);
                    return Ok(());
                }
                Err(ProduceError::NoLeader { .. }) => {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    if attempt + 1 < self.retry.max_attempts {
                        std::thread::sleep(self.retry.backoff(attempt));
                    }
                }
            }
        }
        self.batches_lost.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::QueueConfig;
    use netalytics_data::{DataTuple, TraceCtx};

    fn batch(ids: std::ops::Range<u64>) -> TupleBatch {
        ids.map(|i| DataTuple::new(i, i * 10)).collect()
    }

    /// Everything buffered on `topic`, each payload decoded as the column
    /// frame a spout would read.
    fn read_back(cluster: &QueueCluster, topic: TopicId) -> Vec<ColumnBatch> {
        let mut msgs = Vec::new();
        cluster.consume_batch(cluster.group_id("g"), topic, 10, &mut msgs);
        msgs.iter_mut()
            .map(|m| ColumnBatch::decode(&mut m.payload).expect("column frame"))
            .collect()
    }

    #[test]
    fn ship_appends_column_frames() {
        let cluster = Arc::new(QueueCluster::new(QueueConfig::default()));
        let w = QueueWriter::new(Arc::clone(&cluster), "t");
        w.ship(batch(0..3)).unwrap();
        w.ship(batch(3..5)).unwrap();
        w.ship(TupleBatch::new()).unwrap();
        assert_eq!(w.batches_shipped(), 2, "empty batches are dropped");
        assert_eq!(w.tuples_shipped(), 5);
        assert_eq!(cluster.depth_of(w.topic()), 2);
        let frames = read_back(&cluster, w.topic());
        assert_eq!(frames.iter().map(ColumnBatch::rows).sum::<usize>(), 5);
    }

    #[test]
    fn ship_rows_and_ship_columns_enqueue_identical_payloads() {
        let cluster = Arc::new(QueueCluster::new(QueueConfig {
            partitions: 1,
            ..QueueConfig::default()
        }));
        let w = QueueWriter::new(Arc::clone(&cluster), "t");
        let mut rows: TupleBatch = (0..4u64)
            .map(|i| DataTuple::new(i, i * 10).with("url", "/x").with("n", i))
            .collect();
        rows.trace = Some(TraceCtx {
            cookie: 9,
            batch_id: 2,
            born_ns: 30,
        });
        w.ship(rows.clone()).unwrap();
        w.ship_columns(ColumnBatch::from_batch(&rows)).unwrap();
        let mut msgs = Vec::new();
        cluster.consume_batch(cluster.group_id("g"), w.topic(), 10, &mut msgs);
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[0].payload, msgs[1].payload, "one framing either way");
        assert_eq!(msgs[0].ts_ns, msgs[1].ts_ns);
        let back = ColumnBatch::decode(&mut msgs[0].payload.clone()).unwrap();
        assert_eq!(back.trace(), rows.trace, "trace context rides the frame");
        assert_eq!(back.to_batch(), rows);
    }

    #[test]
    fn ship_columns_appends_columnar_frames() {
        let cluster = Arc::new(QueueCluster::new(QueueConfig::default()));
        let w = QueueWriter::new(Arc::clone(&cluster), "t");
        let rows = batch(0..5);
        w.ship_columns(ColumnBatch::from_batch(&rows)).unwrap();
        w.ship_columns(ColumnBatch::from_batch(&TupleBatch::new()))
            .unwrap();
        assert_eq!(w.batches_shipped(), 1, "empty columnar batches dropped");
        assert_eq!(w.tuples_shipped(), 5);
        let out = read_back(&cluster, w.topic());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to_batch(), rows);
    }

    #[test]
    fn successive_batches_round_robin_partitions() {
        let cluster = Arc::new(QueueCluster::new(QueueConfig {
            brokers: 1,
            partitions: 4,
            partition_capacity: 1024,
            replication: 1,
        }));
        let w = QueueWriter::new(Arc::clone(&cluster), "t");
        for i in 0..8u64 {
            w.ship(batch(i..i + 1)).unwrap();
        }
        let (g, t) = (cluster.group_id("g"), w.topic());
        let mut msgs = Vec::new();
        cluster.consume_batch(g, t, 100, &mut msgs);
        let keys: std::collections::BTreeSet<u64> = msgs.iter().map(|m| m.key % 4).collect();
        assert_eq!(keys.len(), 4, "batches spread across all partitions");
    }

    #[test]
    fn fault_ship_retries_around_dead_partition() {
        // 2 brokers, 2 partitions, replication 1: with one broker dead,
        // roughly one partition is leaderless. Re-keying on retry must
        // land every batch on the surviving partition.
        let cluster = Arc::new(QueueCluster::new(QueueConfig {
            brokers: 2,
            partitions: 2,
            partition_capacity: 1024,
            replication: 1,
        }));
        let t = cluster.topic_id("t");
        let dead = cluster.broker_of("t", 0);
        cluster.fail_broker(dead);
        let w = QueueWriter::new(Arc::clone(&cluster), "t").with_retry(RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_micros(1),
            max_backoff: Duration::from_micros(8),
        });
        for i in 0..6u64 {
            w.ship(batch(i..i + 1)).unwrap();
        }
        assert_eq!(w.batches_shipped(), 6, "all rerouted to the live leader");
        assert_eq!(w.batches_lost(), 0);
        assert!(w.retries() >= 3, "half the keys hit the dead partition");
        assert_eq!(cluster.depth_of(t), 6);
    }

    #[test]
    fn fault_ship_counts_lost_when_cluster_dead() {
        let cluster = Arc::new(QueueCluster::new(QueueConfig {
            brokers: 1,
            partitions: 2,
            partition_capacity: 1024,
            replication: 1,
        }));
        cluster.fail_broker(0);
        let w = QueueWriter::new(Arc::clone(&cluster), "t").with_retry(RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(1),
            max_backoff: Duration::from_micros(2),
        });
        w.ship(batch(0..2)).unwrap();
        assert_eq!(w.batches_shipped(), 0);
        assert_eq!(w.batches_lost(), 1);
        assert_eq!(w.retries(), 3);
        // Broker returns: shipping succeeds again.
        cluster.restore_broker(0);
        w.ship(batch(0..2)).unwrap();
        assert_eq!(w.batches_shipped(), 1);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_micros(500),
        };
        assert_eq!(p.backoff(0), Duration::from_micros(100));
        assert_eq!(p.backoff(1), Duration::from_micros(200));
        assert_eq!(p.backoff(2), Duration::from_micros(400));
        assert_eq!(p.backoff(3), Duration::from_micros(500), "capped");
        assert_eq!(p.backoff(60), Duration::from_micros(500), "no overflow");
    }
}
