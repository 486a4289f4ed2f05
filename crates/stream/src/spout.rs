//! Spouts: tuple sources feeding a topology (paper Fig. 4's "Kafka
//! Spout").

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use netalytics_data::{ColumnBatch, DataTuple, TupleBatch};
use netalytics_queue::{GroupId, Message, QueueCluster, TopicId};
use netalytics_telemetry::{wall_now_ns, Tracer};

use crate::executor::Executor;

/// A pull-based tuple source.
pub trait Spout: Send {
    /// Fetches up to `max` messages' worth of tuples; an empty result
    /// means "nothing right now", not end-of-stream.
    fn poll(&mut self, max: usize) -> Vec<DataTuple>;

    /// Batch-first poll: the executor's preferred entry point. The
    /// default wraps [`Spout::poll`]; sources that already hold batches
    /// (like [`QueueSpout`]) override it to skip the intermediate vector.
    fn poll_batch(&mut self, max: usize) -> TupleBatch {
        TupleBatch::from_tuples(self.poll(max))
    }
}

/// Spout that polls a [`QueueCluster`] topic, decoding [`ColumnBatch`]
/// frames — the paper's Kafka Spout (§5.3: "Storm then uses multiple
/// Kafka 'Spouts' ... to poll for new messages").
///
/// The topic and group names are interned once at construction; each poll
/// is a [`QueueCluster::consume_batch`] into a reused scratch buffer
/// followed by a straight decode into the outgoing batch. Column frames
/// are the only framing on the queue: any other payload fails
/// [`ColumnBatch::decode`]'s magic check and is counted in
/// [`QueueSpout::decode_errors`].
#[derive(Debug)]
pub struct QueueSpout {
    cluster: Arc<QueueCluster>,
    topic: TopicId,
    group: GroupId,
    scratch: Vec<Message>,
    /// Batches that failed to decode (corrupt payloads are skipped).
    decode_errors: u64,
    /// When set, decoded trace contexts get a `queue` span (produce →
    /// consume, wall clock) and propagate onto the merged poll batch.
    tracer: Option<Arc<Tracer>>,
}

impl QueueSpout {
    /// Creates a spout consuming `topic` as consumer group `group`.
    pub fn new(cluster: Arc<QueueCluster>, topic: &str, group: &str) -> Self {
        let topic = cluster.topic_id(topic);
        let group = cluster.group_id(group);
        QueueSpout {
            cluster,
            topic,
            group,
            scratch: Vec::new(),
            decode_errors: 0,
            tracer: None,
        }
    }

    /// Enables queue-span recording: every traced batch this spout
    /// decodes gets a `queue` span covering broker dwell time (produce
    /// timestamp → consume, wall clock).
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Payloads that failed to decode so far.
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors
    }

    /// Records the queue-dwell span of one decoded trace context.
    fn record_queue_span(&self, trace: Option<netalytics_data::TraceCtx>, produced_ts_ns: u64) {
        let (Some(tracer), Some(ctx)) = (&self.tracer, trace) else {
            return;
        };
        tracer.record_span(
            0,
            ctx.cookie,
            ctx.batch_id,
            ctx.born_ns,
            "queue",
            produced_ts_ns,
            wall_now_ns(),
        );
    }
}

impl Spout for QueueSpout {
    fn poll(&mut self, max: usize) -> Vec<DataTuple> {
        self.poll_batch(max).into_tuples()
    }

    fn poll_batch(&mut self, max: usize) -> TupleBatch {
        self.scratch.clear();
        self.cluster
            .consume_batch(self.group, self.topic, max, &mut self.scratch);
        let mut out = TupleBatch::new();
        let mut msgs = std::mem::take(&mut self.scratch);
        for m in msgs.drain(..) {
            let ts_ns = m.ts_ns;
            let mut payload = m.payload;
            let Ok(columns) = ColumnBatch::decode(&mut payload) else {
                self.decode_errors += 1;
                continue;
            };
            let batch = columns.to_batch();
            // The merged poll batch carries the first trace context seen;
            // every decoded context still gets its queue-dwell span.
            self.record_queue_span(batch.trace, ts_ns);
            if out.trace.is_none() {
                out.trace = batch.trace;
            }
            out.extend(batch);
        }
        self.scratch = msgs;
        out
    }
}

/// Sleep between polls while [`drive`] waits for data.
const DRIVE_IDLE: Duration = Duration::from_micros(200);

/// The threaded lane's worker loop, run on the calling thread: poll up to
/// `max` messages, offer the decoded batch, tick windowed bolts to the
/// event-time watermark (the newest capture stamp seen so far), and
/// collect terminal output.
///
/// Returns the collected output once `stop` is set *and* a poll comes
/// back empty — everything shipped before `stop` was raised has then been
/// offered. The caller still owns [`Executor::stop`].
pub fn drive(
    spout: &mut dyn Spout,
    exec: &mut dyn Executor,
    max: usize,
    stop: &AtomicBool,
) -> Vec<DataTuple> {
    let mut out = Vec::new();
    let mut watermark = 0u64;
    loop {
        // Read before the poll: a producer that ships and then raises
        // `stop` is seen by the poll that follows.
        let stopping = stop.load(Ordering::Acquire);
        let batch = spout.poll_batch(max);
        if batch.is_empty() {
            if stopping {
                return out;
            }
            std::thread::sleep(DRIVE_IDLE);
            continue;
        }
        watermark = batch.tuples.iter().fold(watermark, |w, t| w.max(t.ts_ns));
        exec.offer(batch);
        exec.tick(watermark);
        out.append(&mut exec.poll_output());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{build_executor, ExecutorMode};
    use crate::sharded::ShardedConfig;
    use crate::topologies::{build, ProcessorSpec};
    use bytes::Bytes;
    use netalytics_data::{TraceCtx, Value};
    use netalytics_queue::QueueConfig;

    fn frame(tuples: Vec<DataTuple>) -> Bytes {
        ColumnBatch::from_batch(&TupleBatch::from_tuples(tuples)).encode()
    }

    #[test]
    fn queue_spout_decodes_column_frames_and_advances_offsets() {
        let cluster = Arc::new(QueueCluster::new(QueueConfig::default()));
        let t = cluster.topic_id("http_get");
        for k in 0..3u64 {
            let tuples = vec![
                DataTuple::new(k * 2, 0).with("url", "/a"),
                DataTuple::new(k * 2 + 1, 0).with("url", "/b"),
            ];
            cluster.produce_to(t, k, frame(tuples), 0);
        }
        let mut spout = QueueSpout::new(cluster, "http_get", "storm");
        let got = spout.poll_batch(10);
        assert_eq!(got.len(), 6, "three messages drained in one poll");
        assert_eq!(
            got.tuples[0].get("url").and_then(Value::as_str),
            Some("/a"),
            "fields survive the frame"
        );
        assert!(spout.poll(10).is_empty(), "offsets advanced");
        assert_eq!(spout.decode_errors(), 0);
    }

    #[test]
    fn row_encoded_payload_is_a_counted_decode_error() {
        let cluster = Arc::new(QueueCluster::new(QueueConfig::default()));
        let t = cluster.topic_id("t");
        let rows = TupleBatch::from_tuples(vec![DataTuple::new(1, 10).with("url", "/r")]);
        cluster.produce_to(t, 1, rows.encode(), 0);
        cluster.produce_to(t, 1, Bytes::from_static(&[0xff; 3]), 0);
        cluster.produce_to(t, 1, frame(vec![DataTuple::new(2, 20)]), 0);
        let mut spout = QueueSpout::new(cluster, "t", "g");
        let got = spout.poll_batch(10);
        assert_eq!(got.len(), 1, "only the column frame yields tuples");
        assert_eq!(got.tuples[0].id, 2);
        assert_eq!(spout.decode_errors(), 2, "row frame and garbage counted");
    }

    #[test]
    fn queue_spout_records_queue_spans_and_propagates_trace() {
        use netalytics_telemetry::{TraceConfig, Tracer};

        let cluster = Arc::new(QueueCluster::new(QueueConfig::default()));
        let t = cluster.topic_id("t");
        let mut batch = TupleBatch::from_tuples(vec![DataTuple::new(1, 5)]);
        batch.trace = Some(TraceCtx {
            cookie: 7,
            batch_id: 3,
            born_ns: 5,
        });
        cluster.produce_to(t, 1, ColumnBatch::from_batch(&batch).encode(), 100);
        let tracer = Arc::new(Tracer::new(TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        }));
        let mut spout = QueueSpout::new(cluster, "t", "g").with_tracer(Arc::clone(&tracer));
        let got = spout.poll_batch(10);
        assert_eq!(got.len(), 1);
        assert_eq!(got.trace.map(|c| (c.cookie, c.batch_id)), Some((7, 3)));
        let falls = tracer.waterfalls(7);
        assert_eq!(falls.len(), 1);
        assert_eq!(falls[0].spans[0].stage, "queue");
    }

    #[test]
    fn drive_drains_the_queue_into_a_sharded_executor_then_returns() {
        let cluster = Arc::new(QueueCluster::new(QueueConfig::default()));
        let t = cluster.topic_id("t");
        for k in 0..10u64 {
            let tuples = (0..10)
                .map(|i| DataTuple::new(k * 10 + i, 0).with("k", "x").with("v", 1.0))
                .collect();
            cluster.produce_to(t, k, frame(tuples), 0);
        }
        let topo = build(
            &ProcessorSpec::new("group-sum")
                .with_arg("group", "k")
                .with_arg("value", "v"),
        )
        .unwrap();
        let mut exec = build_executor(
            &topo,
            ExecutorMode::Sharded(ShardedConfig {
                shards: 2,
                ..Default::default()
            }),
        );
        let mut spout = QueueSpout::new(Arc::clone(&cluster), "t", "g");
        let mut out = drive(&mut spout, exec.as_mut(), 3, &AtomicBool::new(true));
        assert_eq!(exec.processed(), 100, "every queued tuple was offered");
        assert_eq!(cluster.lag_of(cluster.group_id("g"), t), 0);
        out.extend(exec.stop(1));
        let total: f64 = out
            .iter()
            .filter_map(|t| t.get("sum").and_then(Value::as_f64))
            .sum();
        assert_eq!(total, 100.0);
    }
}
