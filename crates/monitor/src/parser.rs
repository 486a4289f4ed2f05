//! The parser framework: pluggable protocol extractors (paper §3.1).
//!
//! "When a monitor is instantiated, it is instructed to run one or more
//! parsers, capable of extracting information related to a given protocol
//! or application. ... system administrators can develop their own parsers
//! with a simple interface: they define a packet handler function called
//! when each packet arrives and make use of the monitoring library's output
//! functions to emit the desired information."
//!
//! The output functions are [`BatchBuilder`]'s: a handler opens a row,
//! appends typed fields under [`FieldId`]s it interned once at
//! construction, and closes the row. There is no row-tuple form of the
//! interface — what a parser emits is already the column batch that
//! crosses the wire.
//!
//! [`FieldId`]: netalytics_data::FieldId

use netalytics_data::BatchBuilder;
use netalytics_packet::Packet;

use crate::parsers;

/// A protocol parser running inside a monitor.
///
/// Implementations must be cheap per packet — parsers "simply extract a
/// small amount of data from each packet or produce aggregate statistics
/// about flows"; heavier analysis belongs in the stream processor.
///
/// # Examples
///
/// A custom parser counting packets per flow (the paper advertises ~12
/// lines for a new parser; this one is close):
///
/// ```
/// use netalytics_data::{BatchBuilder, FieldId};
/// use netalytics_monitor::Parser;
/// use netalytics_packet::Packet;
///
/// struct PktCount { n: FieldId }
/// impl Parser for PktCount {
///     fn name(&self) -> &'static str { "pkt_count" }
///     fn on_packet_columns(&mut self, pkt: &Packet, out: &mut BatchBuilder) {
///         if let Some(flow) = pkt.flow_key() {
///             out.begin_row(flow.stable_hash(), pkt.ts_ns, self.name());
///             out.field_u64(self.n, 1);
///             out.end_row();
///         }
///     }
/// }
///
/// let mut p = PktCount { n: FieldId::intern("n") };
/// let mut out = BatchBuilder::new();
/// let pkt = Packet::udp("10.0.0.1".parse()?, 1, "10.0.0.2".parse()?, 2, b"");
/// p.on_packet_columns(&pkt, &mut out);
/// assert_eq!(out.finish().u64s(FieldId::intern("n")), Some(&[1][..]));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub trait Parser: Send {
    /// The registry name of this parser (e.g. `http_get`).
    fn name(&self) -> &'static str;

    /// Handles one packet, appending any emitted rows to `out`. Every
    /// row opened must be closed before returning.
    fn on_packet_columns(&mut self, packet: &Packet, out: &mut BatchBuilder);

    /// Periodic flush for parsers that aggregate across packets; the
    /// lane calls it before sealing each batch, with the lane's current
    /// time. Default: nothing buffered.
    fn flush_columns(&mut self, _now_ns: u64, _out: &mut BatchBuilder) {}
}

/// Names of all stock parsers, as listed in paper Table 1.
pub const STOCK_PARSERS: [&str; 6] = [
    "tcp_flow_key",
    "tcp_conn_time",
    "tcp_pkt_size",
    "memcached_get",
    "http_get",
    "mysql_query",
];

/// Instantiates a stock parser by registry name.
///
/// Returns `None` for unknown names; the query compiler validates names
/// against [`STOCK_PARSERS`] before deployment.
pub fn make_parser(name: &str) -> Option<Box<dyn Parser>> {
    Some(match name {
        "tcp_flow_key" => Box::new(parsers::TcpFlowKeyParser::new()),
        "tcp_conn_time" => Box::new(parsers::TcpConnTimeParser::new()),
        "tcp_pkt_size" => Box::new(parsers::TcpPktSizeParser::new()),
        "memcached_get" => Box::new(parsers::MemcachedGetParser::new()),
        "http_get" => Box::new(parsers::HttpGetParser::new()),
        "mysql_query" => Box::new(parsers::MysqlQueryParser::new()),
        _ => return None,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use netalytics_data::DataTuple;

    /// Runs `parser` over `packets` and reads its emissions back as rows
    /// — the unit tests' view of a parser's output.
    pub(crate) fn parse_rows(parser: &mut dyn Parser, packets: &[Packet]) -> Vec<DataTuple> {
        let mut out = BatchBuilder::new();
        for p in packets {
            parser.on_packet_columns(p, &mut out);
        }
        out.finish().to_batch().into_tuples()
    }

    #[test]
    fn all_stock_parsers_instantiate() {
        for name in STOCK_PARSERS {
            let p = make_parser(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(p.name(), name);
        }
    }

    #[test]
    fn unknown_parser_is_none() {
        assert!(make_parser("quic_spin_bit").is_none());
        assert!(make_parser("").is_none());
    }

    mod hostile_input {
        use super::*;
        use netalytics_data::ColumnBatch;
        use netalytics_packet::{http, memcached, mysql, TcpFlags};
        use proptest::prelude::*;
        use std::net::Ipv4Addr;

        prop_compose! {
            /// A well-formed TCP frame with any flag byte, over a handful
            /// of hosts and ports (so flows collide and stateful parsers
            /// pair), carrying a protocol message or noise.
            fn arb_tcp()(
                src in 0u8..3, dst in 0u8..3,
                sport in 0usize..5, dport in 0usize..5,
                flags in any::<u8>(),
                ts in any::<u64>(),
                payload in prop_oneof![
                    Just(Vec::new()),
                    Just(http::build_get("/a", "h")),
                    Just(http::build_response(200, b"x")),
                    Just(memcached::build_get("k")),
                    Just(memcached::build_value_response("k", Some(b"v"))),
                    Just(memcached::build_value_response("k", None)),
                    Just(mysql::build_query("SELECT 1")),
                    Just(mysql::build_ok(1)),
                    proptest::collection::vec(any::<u8>(), 0..64),
                ],
            ) -> Packet {
                const PORTS: [u16; 5] = [80, 3306, 11211, 4000, 4001];
                Packet::tcp(
                    Ipv4Addr::new(10, 0, 0, src), PORTS[sport],
                    Ipv4Addr::new(10, 0, 0, dst), PORTS[dport],
                    TcpFlags(flags), 1, 1, &payload,
                )
                .at_time(ts)
            }
        }

        fn arb_packet() -> impl Strategy<Value = Packet> {
            prop_oneof![
                arb_tcp(),
                // A frame cut short anywhere, headers included.
                (arb_tcp(), 0usize..96).prop_map(|(p, cut)| {
                    Packet::from_bytes(p.data.slice(..cut.min(p.len())), p.ts_ns)
                }),
                proptest::collection::vec(any::<u8>(), 0..128)
                    .prop_map(|raw| Packet::from_bytes(raw.into(), 7)),
            ]
        }

        proptest! {
            /// Packet bytes are untrusted: no stock parser may panic on
            /// them, leave a row half-open (`finish` asserts that), or
            /// build a batch its own codec rejects.
            #[test]
            fn stock_parsers_survive_and_round_trip(
                packets in proptest::collection::vec(arb_packet(), 0..48),
            ) {
                for name in STOCK_PARSERS {
                    let mut parser = make_parser(name).expect("stock parser");
                    let mut out = BatchBuilder::new();
                    for p in &packets {
                        parser.on_packet_columns(p, &mut out);
                    }
                    parser.flush_columns(1, &mut out);
                    let cols = out.finish();
                    let back = ColumnBatch::decode(&mut cols.encode());
                    prop_assert_eq!(
                        back.map(|b| b.to_batch()),
                        Ok(cols.to_batch()),
                        "{} frame round-trips", name
                    );
                }
            }
        }
    }
}
