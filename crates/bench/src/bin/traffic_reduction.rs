//! Abstract/§6.1 accounting — tuple-vs-raw traffic reduction and the
//! "40 Gbps with 4 monitoring cores and 15 processing cores" budget.
//!
//! Run with: `cargo run --release -p netalytics-bench --bin traffic_reduction`

use netalytics_bench::{http_get_stream, parser_gbps};
use netalytics_monitor::{Monitor, MonitorConfig, SampleSpec};
use netalytics_packet::{Packet, TcpFlags};

fn main() {
    // A realistic web mix: 1 GET request per 10 full-size data packets.
    let mut monitor = Monitor::new(MonitorConfig {
        parsers: vec!["http_get".into(), "tcp_conn_time".into()],
        sample: SampleSpec::All,
        batch_size: 128,
        preagg: None,
    })
    .expect("stock parsers");
    let gets = http_get_stream(2_000, 512, 256);
    let src: std::net::Ipv4Addr = "10.0.2.9".parse().unwrap();
    let dst: std::net::Ipv4Addr = "10.0.2.8".parse().unwrap();
    for (i, get) in gets.iter().enumerate() {
        let port = 4000 + (i as u16 % 512);
        monitor.process(&Packet::tcp(dst, port, src, 80, TcpFlags::SYN, 0, 0, b""));
        monitor.process(get);
        for j in 0..10u32 {
            monitor.process(&Packet::tcp(
                src,
                80,
                dst,
                port,
                TcpFlags::ACK,
                j,
                0,
                &vec![0u8; 1400],
            ));
        }
        monitor.process(&Packet::tcp(
            src,
            80,
            dst,
            port,
            TcpFlags::FIN | TcpFlags::ACK,
            11,
            0,
            b"",
        ));
    }
    monitor.drain(0);
    let s = monitor.stats();
    let reduction = s.reduction_factor().unwrap_or(f64::NAN);
    println!("== monitor data reduction (web mix: 1 GET per 10 x 1400B data pkts) ==");
    println!("  raw bytes in     : {:>12}", s.bytes_in);
    println!("  column bytes out : {:>12}", s.bytes_out);
    println!("  tuples emitted   : {:>12}", s.tuples_out);
    println!("  reduction factor : {reduction:>12.1}x");
    println!("  (Fig. 6 analysis assumes ~10:1 monitor->aggregator reduction)");

    // Core budget for 40 Gbps, scaled from this machine's measured
    // single-core parser rate (Fig. 5 methodology).
    let gbps_core = parser_gbps("http_get", &http_get_stream(4096, 512, 64), 100);
    let monitor_cores = (40.0 / gbps_core).ceil();
    println!("\n== core budget for a 40 Gbps aggregate (paper: 4 monitor + 15 processing) ==");
    println!("  this machine, http_get @512B: {gbps_core:.2} Gbps per core");
    println!("  monitor cores for 40 Gbps   : {monitor_cores:.0}");
    println!("  processing cores (paper model): 40 Gbps / 10:1 reduction = 4 Gbps of tuples;");
    println!("  at ~0.27 Gbps per analytics process (Fig. 6: 4.15 Gbps / 15 procs), ~15 cores.");
}
