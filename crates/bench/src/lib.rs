//! Shared workload builders for the paper's experiment index.
//!
//! Each binary in this crate regenerates one table or figure of the
//! evaluation (see DESIGN.md §3 and EXPERIMENTS.md): it prints its table,
//! writes nothing, and gates only on counts, recall or virtual time —
//! wall-clock verdicts belong to `e2ebench/` + `BENCHMARK.json`. The
//! helpers here build the synthetic packet streams that stand in for the
//! paper's PktGen-DPDK traffic generator.

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use netalytics_data::{BatchBuilder, BatchSink, ColumnBatch, SinkClosed, TupleBatch};
use netalytics_monitor::{make_parser, Pipeline, PipelineConfig, PipelineSummary};
use netalytics_packet::{
    http, Packet, TcpFlags, ETHERNET_HEADER_LEN, IPV4_HEADER_LEN, TCP_HEADER_LEN,
};

/// Source address used by generated streams.
pub const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 2, 8);
/// Destination address used by generated streams.
pub const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 2, 9);

/// A stream of TCP packets of exactly `frame_len` bytes cycling through
/// `flows` distinct 5-tuples — the `tcp_conn_time` workload of Fig. 5.
///
/// Like real traffic, most packets are plain data segments; connection
/// boundaries (SYN, FIN) appear once per 16 packets, so the parser's
/// fast path ("detect SYN/FIN/RST flags", Table 1) dominates.
pub fn syn_fin_stream(n: usize, frame_len: usize, flows: u16) -> Vec<Packet> {
    (0..n)
        .map(|i| {
            let port = 4000 + (i as u16 % flows.max(1));
            let flags = match i % 16 {
                0 => TcpFlags::SYN,
                8 => TcpFlags::FIN | TcpFlags::ACK,
                _ => TcpFlags::ACK,
            };
            Packet::tcp_padded(SRC, port, DST, 80, flags, frame_len)
        })
        .collect()
}

/// A stream of HTTP GET requests padded to exactly `frame_len` bytes —
/// the `http_get` workload of Fig. 5 (string parsing per packet).
///
/// # Panics
///
/// Panics if `frame_len` cannot hold the headers plus a minimal GET.
pub fn http_get_stream(n: usize, frame_len: usize, urls: usize) -> Vec<Packet> {
    let overhead = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + TCP_HEADER_LEN;
    (0..n)
        .map(|i| {
            let mut payload = http::build_get(&format!("/u{}", i % urls.max(1)), "h");
            assert!(
                overhead + payload.len() <= frame_len,
                "frame_len {frame_len} too small for an HTTP GET"
            );
            payload.resize(frame_len - overhead, b' ');
            Packet::tcp(
                SRC,
                4000 + (i as u16 % 512),
                DST,
                80,
                TcpFlags::PSH | TcpFlags::ACK,
                1,
                1,
                &payload,
            )
        })
        .collect()
}

/// Cheapest possible downstream of a [`netalytics_monitor::Pipeline`]:
/// count tuples, drop the batch. The pipeline ships column batches;
/// counting them as such keeps a row conversion out of the timed path.
#[derive(Debug, Default)]
pub struct CountSink(AtomicU64);

impl BatchSink for CountSink {
    fn ship(&self, batch: TupleBatch) -> Result<(), SinkClosed> {
        self.0.fetch_add(batch.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn ship_columns(&self, columns: ColumnBatch) -> Result<(), SinkClosed> {
        self.0.fetch_add(columns.rows() as u64, Ordering::Relaxed);
        Ok(())
    }
}

/// One measured pass through the threaded monitor lane: offers `packets`
/// frames cycled from `stream` to a fresh pipeline shipping into a
/// [`CountSink`] and drains it. Returns the wall seconds (drain included)
/// and the final counters.
///
/// # Panics
///
/// Panics if `config` names no or an unknown parser.
pub fn drive_pipeline(
    config: PipelineConfig,
    stream: &[Packet],
    packets: usize,
) -> (f64, PipelineSummary) {
    let pipeline = Pipeline::spawn_with_sink(config, Arc::new(CountSink::default()))
        .expect("valid pipeline config");
    let start = Instant::now();
    for i in 0..packets {
        pipeline.offer(stream[i % stream.len()].clone());
    }
    let summary = pipeline.shutdown(false);
    (start.elapsed().as_secs_f64(), summary)
}

/// Gbps one core sustains running a stock parser over `stream`, `rounds`
/// times after a warm-up pass, the way a lane runs it: rows land as typed
/// columns in a [`BatchBuilder`] and each round seals one batch.
///
/// # Panics
///
/// Panics if `parser_name` is not a stock parser.
pub fn parser_gbps(parser_name: &str, stream: &[Packet], rounds: usize) -> f64 {
    let mut parser = make_parser(parser_name).expect("stock parser");
    let mut builder = BatchBuilder::new();
    let bytes: u64 = stream.iter().map(|p| p.len() as u64).sum();
    let mut start = Instant::now();
    for round in 0..=rounds {
        if round == 1 {
            start = Instant::now(); // round 0 was the warm-up
        }
        for p in stream {
            parser.on_packet_columns(p, &mut builder);
        }
        let _ = builder.finish();
    }
    gbps(bytes * rounds as u64, start.elapsed().as_secs_f64())
}

/// Gigabits per second achieved moving `bytes` in `secs`.
pub fn gbps(bytes: u64, secs: f64) -> f64 {
    (bytes as f64 * 8.0) / secs / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_have_exact_frame_lengths() {
        for len in [64usize, 128, 256, 512, 1024] {
            for p in syn_fin_stream(10, len, 4) {
                assert_eq!(p.len(), len);
            }
        }
        for len in [128usize, 256, 512, 1024] {
            for p in http_get_stream(10, len, 5) {
                assert_eq!(p.len(), len);
                assert!(http::parse_request(p.view().unwrap().payload).is_some());
            }
        }
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_http_frames_panic() {
        let _ = http_get_stream(1, 64, 1);
    }

    #[test]
    fn gbps_math() {
        assert_eq!(gbps(1_250_000_000, 1.0), 10.0);
    }
}
