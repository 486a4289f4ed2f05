//! Fig. 5 (table form) — monitor throughput vs packet size.
//!
//! Prints the Gbps a single parser core sustains per frame size, next to
//! the 10 Gbps line-rate reference, for `tcp_conn_time` and `http_get` —
//! the exact series of the paper's Figure 5. Each parser runs as the
//! lane runs it: [`Parser::on_packet_columns`] straight into a
//! [`BatchBuilder`], one sealed batch per pass over the stream.
//! The recorded table is `results/fig5.txt`.
//!
//! [`Parser::on_packet_columns`]: netalytics_monitor::Parser::on_packet_columns
//!
//! Run with: `cargo run --release -p netalytics-bench --bin fig5_monitor_throughput`
//! (add `--quick` for the CI smoke variant).

use std::fmt::Write as _;

use netalytics_bench::{http_get_stream, parser_gbps, syn_fin_stream};

const LINE_RATE_GBPS: f64 = 10.0;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n = 4096;
    let rounds = if quick { 10 } else { 200 };
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Fig. 5 — monitor throughput, one parser core (line rate {LINE_RATE_GBPS} Gbps)\n"
    );
    let _ = writeln!(
        report,
        "{:>10} {:>22} {:>22}",
        "pkt size", "tcp_conn_time (Gbps)", "http_get (Gbps)"
    );
    for &size in &[64usize, 128, 256, 512, 1024] {
        let tcp = parser_gbps("tcp_conn_time", &syn_fin_stream(n, size, 256), rounds);
        let http = if size >= 128 {
            parser_gbps("http_get", &http_get_stream(n, size, 64), rounds)
        } else {
            f64::NAN // a GET does not fit a 64 B frame
        };
        let cap = |v: f64| {
            if v.is_nan() {
                "    -".to_string()
            } else {
                format!(
                    "{:>8.2}{}",
                    v.min(1e4),
                    if v >= LINE_RATE_GBPS { " (>=line)" } else { "" }
                )
            }
        };
        let _ = writeln!(report, "{:>10} {:>22} {:>22}", size, cap(tcp), cap(http));
    }
    let _ = writeln!(
        report,
        "\nShape check (paper): the simple TCP parser reaches line rate at"
    );
    let _ = writeln!(
        report,
        "smaller frames than the string-parsing HTTP parser; both grow with"
    );
    let _ = writeln!(
        report,
        "packet size. Absolute Gbps depend on this machine, not the paper's."
    );
    let _ = writeln!(
        report,
        "Both parsers emit straight into a column builder (no heap rows)."
    );
    print!("{report}");
}
