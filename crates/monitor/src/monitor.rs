//! The monitor proper: sampler → lane → sealed column batches.
//!
//! This is the *inline* (single-threaded, deterministic) form used on the
//! discrete-event plane; [`crate::pipeline`] is the threaded form. Both
//! drive the same lane core ([`crate::lane`]), here on the
//! virtual clock: packet capture times while processing, the caller's
//! `now_ns` at each drain.

use std::sync::Arc;

use netalytics_data::ColumnBatch;
use netalytics_packet::Packet;
use netalytics_sketch::{PreAgg, PreAggSpec};
use netalytics_telemetry::Tracer;

use crate::lane::{Lane, LaneStats};
use crate::parser::make_parser;
use crate::sampler::{FeedbackSignal, FlowSampler, SampleSpec};

/// Configuration of one monitor instance.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Registry names of the parsers to run (paper `PARSE` clause).
    pub parsers: Vec<String>,
    /// Sampling requested by the query's `SAMPLE` clause.
    pub sample: SampleSpec,
    /// Rows (and packets between parser flushes) per output batch (§3.1:
    /// tuples are sent in batches).
    pub batch_size: usize,
    /// When set, parsed rows the spec covers fold into a bounded
    /// in-monitor sketch and only a delta ships, per drain or per 1024
    /// folded rows, whichever comes first — the §5.2
    /// data-reduction idea pushed from the aggregation layer all the
    /// way into the NFV monitor.
    pub preagg: Option<PreAggSpec>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            parsers: vec!["tcp_flow_key".into()],
            sample: SampleSpec::All,
            batch_size: 64,
            preagg: None,
        }
    }
}

/// Traffic-accounting counters of one monitor, used to report the
/// monitor→aggregator data-reduction factor (the paper assumes ~10:1 for
/// the Fig. 6 analysis).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Packets offered to the monitor.
    pub packets_seen: u64,
    /// Packets passing the sampler.
    pub packets_sampled: u64,
    /// Raw bytes across sampled packets.
    pub bytes_in: u64,
    /// Tuples emitted by parsers.
    pub tuples_out: u64,
    /// Encoded bytes across emitted batches.
    pub bytes_out: u64,
    /// Parsed tuples folded into the pre-aggregation sketch instead of
    /// being shipped raw.
    pub tuples_folded: u64,
    /// Sketch delta tuples shipped in place of the folded raw tuples.
    pub sketches_out: u64,
}

impl MonitorStats {
    fn absorb(&mut self, lane: LaneStats) {
        self.tuples_out += lane.tuples_out;
        self.bytes_out += lane.bytes_out;
        self.tuples_folded += lane.tuples_folded;
        self.sketches_out += lane.sketches_out;
    }

    /// Raw-traffic-to-tuple-traffic reduction factor (input bytes per
    /// output byte); `None` until something was emitted.
    pub fn reduction_factor(&self) -> Option<f64> {
        if self.bytes_out == 0 {
            None
        } else {
            Some(self.bytes_in as f64 / self.bytes_out as f64)
        }
    }

    /// How many tuples would have crossed the monitor→aggregator queue
    /// without pre-aggregation, per tuple that actually did; `None`
    /// until something was emitted.
    pub fn fold_factor(&self) -> Option<f64> {
        if self.tuples_out == 0 {
            None
        } else {
            Some((self.tuples_folded + self.tuples_out) as f64 / self.tuples_out as f64)
        }
    }

    /// Publishes this snapshot as `monitor.*` gauges labeled
    /// `{monitor=name}`. The inline monitor runs on the deterministic
    /// plane where the per-event cost of live instruments would distort
    /// the simulation, so stats stay a plain struct and are exported on
    /// scrape instead.
    pub fn export(&self, metrics: &netalytics_telemetry::MetricsRegistry, name: &str) {
        let l: &[(&str, &str)] = &[("monitor", name)];
        metrics
            .gauge("monitor.packets_seen", l)
            .set(self.packets_seen as i64);
        metrics
            .gauge("monitor.packets_sampled", l)
            .set(self.packets_sampled as i64);
        metrics
            .gauge("monitor.bytes_in", l)
            .set(self.bytes_in as i64);
        metrics
            .gauge("monitor.tuples_out", l)
            .set(self.tuples_out as i64);
        metrics
            .gauge("monitor.bytes_out", l)
            .set(self.bytes_out as i64);
        metrics
            .gauge("monitor.tuples_folded", l)
            .set(self.tuples_folded as i64);
        metrics
            .gauge("monitor.sketches_out", l)
            .set(self.sketches_out as i64);
    }
}

/// Error constructing a monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonitorError {
    /// A parser name was not found in the registry.
    UnknownParser(String),
    /// The configuration listed no parsers.
    NoParsers,
}

impl std::fmt::Display for MonitorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MonitorError::UnknownParser(name) => write!(f, "unknown parser {name:?}"),
            MonitorError::NoParsers => f.write_str("monitor configured with no parsers"),
        }
    }
}

impl std::error::Error for MonitorError {}

/// An NFV monitor instance (inline execution).
///
/// # Examples
///
/// ```
/// use netalytics_monitor::{Monitor, MonitorConfig, SampleSpec};
/// use netalytics_packet::{Packet, TcpFlags};
///
/// let mut m = Monitor::new(MonitorConfig {
///     parsers: vec!["tcp_conn_time".into()],
///     sample: SampleSpec::All,
///     batch_size: 8,
///     preagg: None,
/// })?;
/// let syn = Packet::tcp(
///     "10.0.0.1".parse()?, 4000, "10.0.0.2".parse()?, 80,
///     TcpFlags::SYN, 0, 0, b"",
/// );
/// m.process(&syn);
/// let batches = m.drain(0);
/// assert_eq!(batches.iter().map(|b| b.len()).sum::<usize>(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Monitor {
    lane: Lane,
    sampler: FlowSampler,
    /// Batches sealed since the last drain.
    ready: Vec<ColumnBatch>,
    stats: MonitorStats,
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor")
            .field("parsers", &self.lane.parser_names())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Monitor {
    /// Builds a monitor from `config`.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError`] for an empty parser list or unknown names.
    pub fn new(config: MonitorConfig) -> Result<Self, MonitorError> {
        if config.parsers.is_empty() {
            return Err(MonitorError::NoParsers);
        }
        let parsers = config
            .parsers
            .iter()
            .map(|n| make_parser(n).ok_or_else(|| MonitorError::UnknownParser(n.clone())))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Monitor {
            lane: Lane::new(
                parsers,
                config.batch_size,
                config.preagg.map(PreAgg::new),
                None,
                0,
            ),
            sampler: FlowSampler::new(config.sample),
            ready: Vec::new(),
            stats: MonitorStats::default(),
        })
    }

    /// Enables query-scoped tracing: sealed batches are head-sampled
    /// per the tracer's config, and sampled ones carry a trace context
    /// for `cookie` downstream (plus a `parse` span covering first row →
    /// seal on the virtual clock).
    pub fn set_tracing(&mut self, cookie: u64, tracer: Arc<Tracer>) {
        self.lane.set_tracing(cookie, tracer);
    }

    fn seal(&mut self, now_ns: u64, drain: bool) {
        self.ready.extend(self.lane.seal(now_ns, drain, || now_ns));
        self.stats.absorb(self.lane.take_stats());
    }

    /// Offers one packet to the monitor; every parser sees each sampled
    /// packet (the collector fans a descriptor out to all parser queues).
    /// A batch that fills seals on the spot, at the packet's capture
    /// time, and waits for the next [`Monitor::drain`].
    pub fn process(&mut self, packet: &Packet) {
        self.stats.packets_seen += 1;
        if !self.sampler.accept(packet) {
            return;
        }
        self.stats.packets_sampled += 1;
        self.stats.bytes_in += packet.len() as u64;
        if self.lane.offer(packet, || packet.ts_ns) {
            self.seal(self.lane.newest_ts(), false);
        }
    }

    /// Flushes aggregating parsers and the pre-aggregation sketch at
    /// `now_ns` and hands over every batch sealed since the last drain.
    pub fn drain(&mut self, now_ns: u64) -> Vec<ColumnBatch> {
        self.seal(now_ns, true);
        std::mem::take(&mut self.ready)
    }

    /// Forwards an aggregation-layer feedback signal to the sampler.
    pub fn on_feedback(&mut self, signal: FeedbackSignal) {
        self.sampler.on_feedback(signal);
    }

    /// The current effective sampling rate.
    pub fn sample_rate(&self) -> f64 {
        self.sampler.rate()
    }

    /// Traffic counters.
    pub fn stats(&self) -> MonitorStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netalytics_data::DataTuple;
    use netalytics_packet::{http, TcpFlags};
    use std::net::Ipv4Addr;

    fn rows(batches: Vec<ColumnBatch>) -> Vec<DataTuple> {
        batches.iter().flat_map(ColumnBatch::to_batch).collect()
    }

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 9);

    fn http_pkt(url: &str) -> Packet {
        Packet::tcp(
            A,
            4000,
            B,
            80,
            TcpFlags::PSH | TcpFlags::ACK,
            1,
            1,
            &http::build_get(url, "b"),
        )
    }

    #[test]
    fn unknown_parser_rejected() {
        let err = Monitor::new(MonitorConfig {
            parsers: vec!["bogus".into()],
            ..Default::default()
        })
        .unwrap_err();
        assert_eq!(err, MonitorError::UnknownParser("bogus".into()));
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn empty_parser_list_rejected() {
        let err = Monitor::new(MonitorConfig {
            parsers: vec![],
            ..Default::default()
        })
        .unwrap_err();
        assert_eq!(err, MonitorError::NoParsers);
    }

    #[test]
    fn multiple_parsers_see_each_packet() {
        let mut m = Monitor::new(MonitorConfig {
            parsers: vec!["tcp_flow_key".into(), "http_get".into()],
            sample: SampleSpec::All,
            batch_size: 100,
            preagg: None,
        })
        .unwrap();
        m.process(&http_pkt("/a"));
        let tuples = rows(m.drain(0));
        assert_eq!(tuples.len(), 2, "one tuple from each parser");
        let sources: Vec<_> = tuples.iter().map(|t| t.source.clone()).collect();
        assert!(sources.contains(&"tcp_flow_key".to_string()));
        assert!(sources.contains(&"http_get".to_string()));
    }

    #[test]
    fn batches_respect_batch_size() {
        let mut m = Monitor::new(MonitorConfig {
            parsers: vec!["tcp_flow_key".into()],
            sample: SampleSpec::All,
            batch_size: 10,
            preagg: None,
        })
        .unwrap();
        for i in 0..25 {
            m.process(&Packet::tcp(A, 4000 + i, B, 80, TcpFlags::ACK, 0, 0, b""));
        }
        let batches = m.drain(0);
        let sizes: Vec<_> = batches.iter().map(ColumnBatch::rows).collect();
        assert_eq!(sizes, vec![10, 10, 5]);
    }

    #[test]
    fn reduction_factor_is_substantial_for_http() {
        let mut m = Monitor::new(MonitorConfig {
            parsers: vec!["http_get".into()],
            sample: SampleSpec::All,
            batch_size: 64,
            preagg: None,
        })
        .unwrap();
        // Realistic mix: one GET per 10 data packets of 1 KB.
        for i in 0..50u32 {
            m.process(&http_pkt(&format!("/page{}", i % 5)));
            for j in 0..10u32 {
                m.process(&Packet::tcp(
                    B,
                    80,
                    A,
                    4000,
                    TcpFlags::ACK,
                    i * 100 + j,
                    0,
                    &vec![0u8; 1024],
                ));
            }
        }
        m.drain(0);
        let r = m.stats().reduction_factor().unwrap();
        assert!(r > 10.0, "reduction factor {r} should exceed 10x");
    }

    #[test]
    fn preagg_folds_tuples_into_one_delta_per_drain() {
        use netalytics_sketch::{PreAggSpec, Sketch, SKETCH_SOURCE};

        let mut m = Monitor::new(MonitorConfig {
            parsers: vec!["http_get".into()],
            sample: SampleSpec::All,
            batch_size: 64,
            preagg: Some(PreAggSpec::HeavyHitters {
                key_field: "url".into(),
                eps: 0.01,
            }),
        })
        .unwrap();
        for i in 0..100u32 {
            m.process(&http_pkt(&format!("/page{}", i % 5)));
        }
        let tuples = rows(m.drain(7_000));
        // 100 parsed tuples collapse to one sketch delta over the queue.
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0].source, SKETCH_SOURCE);
        let Some(Ok(Sketch::HeavyHitters(ss))) = Sketch::from_tuple(&tuples[0]) else {
            panic!("delta tuple must carry a heavy-hitters sketch");
        };
        assert_eq!(ss.estimate("/page0").map(|e| e.count), Some(20));

        let s = m.stats();
        assert_eq!(s.tuples_folded, 100);
        assert_eq!(s.sketches_out, 1);
        assert_eq!(s.tuples_out, 1);
        assert!(s.fold_factor().unwrap() >= 10.0);

        // Delta semantics: the next drain starts from an empty sketch.
        assert!(m.drain(8_000).is_empty());
    }

    #[test]
    fn preagg_ships_uncovered_tuples_raw() {
        use netalytics_sketch::PreAggSpec;

        // tcp_flow_key tuples have no "url" field, so nothing folds.
        let mut m = Monitor::new(MonitorConfig {
            parsers: vec!["tcp_flow_key".into()],
            sample: SampleSpec::All,
            batch_size: 64,
            preagg: Some(PreAggSpec::HeavyHitters {
                key_field: "url".into(),
                eps: 0.01,
            }),
        })
        .unwrap();
        for i in 0..10 {
            m.process(&Packet::tcp(A, 4000 + i, B, 80, TcpFlags::ACK, 0, 0, b""));
        }
        let tuples = rows(m.drain(0));
        assert_eq!(tuples.len(), 10, "uncovered tuples pass through raw");
        assert_eq!(m.stats().tuples_folded, 0);
        assert_eq!(m.stats().sketches_out, 0);
    }

    #[test]
    fn tracing_stamps_sampled_batches_and_records_parse_spans() {
        use netalytics_telemetry::{TraceConfig, Tracer};

        let mut m = Monitor::new(MonitorConfig {
            parsers: vec!["tcp_flow_key".into()],
            sample: SampleSpec::All,
            batch_size: 4,
            preagg: None,
        })
        .unwrap();
        let tracer = std::sync::Arc::new(Tracer::new(TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        }));
        m.set_tracing(42, std::sync::Arc::clone(&tracer));
        for i in 0..8 {
            m.process(&Packet::tcp(A, 4000 + i, B, 80, TcpFlags::ACK, 0, 0, b""));
        }
        let batches = m.drain(5_000);
        assert_eq!(batches.len(), 2);
        for b in &batches {
            let ctx = b.trace().expect("sample_every=1 stamps every batch");
            assert_eq!(ctx.cookie, 42);
            assert!(ctx.batch_id > 0);
        }
        assert_ne!(batches[0].trace(), batches[1].trace(), "distinct batch ids");
        let falls = tracer.waterfalls(42);
        assert!(!falls.is_empty());
        assert_eq!(falls[0].spans[0].stage, "parse");
    }

    #[test]
    fn untraced_monitor_leaves_batches_unstamped() {
        let mut m = Monitor::new(MonitorConfig::default()).unwrap();
        m.process(&Packet::tcp(A, 4000, B, 80, TcpFlags::ACK, 0, 0, b""));
        assert!(m.drain(0).iter().all(|b| b.trace().is_none()));
    }

    #[test]
    fn sampling_reduces_sampled_count() {
        let mut m = Monitor::new(MonitorConfig {
            parsers: vec!["tcp_flow_key".into()],
            sample: SampleSpec::Rate(0.2),
            batch_size: 64,
            preagg: None,
        })
        .unwrap();
        for i in 0..1000u16 {
            m.process(&Packet::tcp(A, i, B, 80, TcpFlags::ACK, 0, 0, b""));
        }
        let s = m.stats();
        assert_eq!(s.packets_seen, 1000);
        assert!(s.packets_sampled < 400, "sampled {}", s.packets_sampled);
        assert!(s.packets_sampled > 50);
    }

    #[test]
    fn feedback_reaches_sampler() {
        let mut m = Monitor::new(MonitorConfig {
            parsers: vec!["tcp_flow_key".into()],
            sample: SampleSpec::Auto,
            batch_size: 64,
            preagg: None,
        })
        .unwrap();
        assert_eq!(m.sample_rate(), 1.0);
        m.on_feedback(FeedbackSignal::Overloaded);
        assert_eq!(m.sample_rate(), 0.5);
    }
}
