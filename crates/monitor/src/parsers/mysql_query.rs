//! `mysql_query` — parse MySQL queries and responses (Table 1, App layer).
//!
//! "Since MySQL permits several queries to be sent over a single TCP
//! connection, measuring the full connection time hides the individual
//! query times. We have implemented a mysql parser which observes a TCP
//! stream to detect individual query/response pairs. This parser emits
//! timing information on a per-query basis, as well as the query statement
//! itself." (§7.2, Fig. 15)

use std::collections::HashMap;

use netalytics_data::BatchBuilder;
use netalytics_packet::{mysql, Packet};

use super::{field_ip, Fields};
use crate::parser::Parser;

/// Pairs `COM_QUERY` packets with the next server response on the same
/// connection and emits one tuple per query with its latency.
#[derive(Debug, Default)]
pub struct MysqlQueryParser {
    f: Fields,
    /// Per-connection FIFO of outstanding (sql, sent_ns) queries.
    outstanding: HashMap<u64, Vec<(String, u64)>>,
}

impl MysqlQueryParser {
    /// Creates the parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queries awaiting a response (for overload tests).
    pub fn outstanding_len(&self) -> usize {
        self.outstanding.values().map(Vec::len).sum()
    }
}

impl Parser for MysqlQueryParser {
    fn name(&self) -> &'static str {
        "mysql_query"
    }

    fn on_packet_columns(&mut self, packet: &Packet, out: &mut BatchBuilder) {
        let Ok(view) = packet.view() else { return };
        if view.tcp.is_none() || view.payload.is_empty() {
            return;
        }
        let Some(flow) = packet.flow_key() else {
            return;
        };
        let conn = flow.canonical_hash();
        // Heuristic direction split: queries go client->server (toward the
        // MySQL port), responses come back. We try the client parse first;
        // a COM_QUERY frame never starts with 0x00/0xff markers.
        if let Some(mysql::ClientMessage::Query { sql }) = mysql::parse_client(view.payload) {
            self.outstanding
                .entry(conn)
                .or_default()
                .push((sql, packet.ts_ns));
            return;
        }
        if mysql::parse_server(view.payload).is_some() {
            if let Some(queue) = self.outstanding.get_mut(&conn) {
                if !queue.is_empty() {
                    let (sql, sent_ns) = queue.remove(0);
                    let rt_ms = packet.ts_ns.saturating_sub(sent_ns) as f64 / 1e6;
                    out.begin_row(conn, packet.ts_ns, "mysql_query");
                    out.field_str(self.f.sql, &sql);
                    out.field_f64(self.f.rt_ms, rt_ms);
                    field_ip(out, self.f.dst_ip, flow.src_ip);
                    out.end_row();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::tests::parse_rows;
    use netalytics_data::{DataTuple, Value};
    use netalytics_packet::TcpFlags;
    use std::net::Ipv4Addr;

    const C: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const S: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 6);

    fn query_pkt(sql: &str, ts: u64) -> Packet {
        Packet::tcp(
            C,
            4000,
            S,
            3306,
            TcpFlags::PSH | TcpFlags::ACK,
            1,
            1,
            &mysql::build_query(sql),
        )
        .at_time(ts)
    }

    fn ok_pkt(ts: u64) -> Packet {
        Packet::tcp(
            S,
            3306,
            C,
            4000,
            TcpFlags::PSH | TcpFlags::ACK,
            1,
            2,
            &mysql::build_ok(1),
        )
        .at_time(ts)
    }

    #[test]
    fn pairs_query_with_response() {
        let mut p = MysqlQueryParser::new();
        assert!(parse_rows(&mut p, &[query_pkt("SELECT 1", 1_000_000)]).is_empty());
        assert_eq!(p.outstanding_len(), 1);
        let out = parse_rows(&mut p, &[ok_pkt(3_000_000)]);
        // Field names, order and value types, as the processors read them.
        assert_eq!(
            out,
            [DataTuple::new(out[0].id, 3_000_000)
                .from_source("mysql_query")
                .with("sql", "SELECT 1")
                .with("rt_ms", 2.0)
                .with("dst_ip", "10.0.0.6")]
        );
        assert_eq!(p.outstanding_len(), 0);
    }

    #[test]
    fn pipelined_queries_pair_in_order() {
        let out = parse_rows(
            &mut MysqlQueryParser::new(),
            &[
                query_pkt("Q1", 0),
                query_pkt("Q2", 1_000_000),
                ok_pkt(2_000_000),
                ok_pkt(5_000_000),
            ],
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].get("sql").and_then(Value::as_str), Some("Q1"));
        assert_eq!(out[1].get("sql").and_then(Value::as_str), Some("Q2"));
        assert_eq!(out[1].get("rt_ms").and_then(Value::as_f64), Some(4.0));
    }

    #[test]
    fn response_without_query_is_ignored() {
        assert!(parse_rows(&mut MysqlQueryParser::new(), &[ok_pkt(1)]).is_empty());
    }

    #[test]
    fn result_set_also_completes_query() {
        let rs = Packet::tcp(
            S,
            3306,
            C,
            4000,
            TcpFlags::PSH | TcpFlags::ACK,
            1,
            2,
            &mysql::build_result_set(1, 3),
        )
        .at_time(7_000_000);
        let out = parse_rows(
            &mut MysqlQueryParser::new(),
            &[query_pkt("SELECT * FROM t", 0), rs],
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get("rt_ms").and_then(Value::as_f64), Some(7.0));
    }
}
