//! `tcp_conn_time` — detect SYN/FIN/RST flags (Table 1, Net layer).
//!
//! "The parser reports the start and end time of each TCP connection"
//! (§7.1). It is nearly stateless: it "simply emits a data tuple when a
//! SYN or FIN flag is seen" (§6.1), tagged so the `diff` processor block
//! can subtract start from end per connection.

use netalytics_data::BatchBuilder;
use netalytics_packet::{FlowKey, IpProto, Packet, TcpFlags};

use super::{field_ip, Fields};
use crate::parser::Parser;

/// Emits `start`/`end` events keyed by the direction-independent flow
/// hash, so both connection halves aggregate under one ID.
#[derive(Debug, Default)]
pub struct TcpConnTimeParser {
    f: Fields,
}

impl TcpConnTimeParser {
    /// Creates the parser.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Parser for TcpConnTimeParser {
    fn name(&self) -> &'static str {
        "tcp_conn_time"
    }

    fn on_packet_columns(&mut self, packet: &Packet, out: &mut BatchBuilder) {
        let Ok(view) = packet.view() else { return };
        let (Some(ip), Some(tcp)) = (view.ipv4, view.tcp) else {
            return;
        };
        // Only the initial SYN (not SYN-ACK) marks connection start, and
        // the ID must be direction-independent so start and end join.
        let event = if tcp.flags.contains(TcpFlags::SYN) && !tcp.flags.contains(TcpFlags::ACK) {
            "start"
        } else if tcp.flags.intersects(TcpFlags::FIN | TcpFlags::RST) {
            "end"
        } else {
            return;
        };
        let flow = FlowKey::new(ip.src, tcp.src_port, ip.dst, tcp.dst_port, IpProto::Tcp);
        let canon = flow.canonical();
        // Orient addressing by the connection initiator: for `start` the
        // packet already flows initiator->server; for `end` either side
        // may close, so report the canonical server side as dst.
        let (src_ip, dst_ip, dst_port) = if event == "start" || canon == flow {
            (ip.src, ip.dst, tcp.dst_port)
        } else {
            (ip.dst, ip.src, canon.dst_port)
        };
        out.begin_row(canon.stable_hash(), packet.ts_ns, "tcp_conn_time");
        out.field_str(self.f.event, event);
        out.field_u64(self.f.t_ns, packet.ts_ns);
        field_ip(out, self.f.src_ip, src_ip);
        field_ip(out, self.f.dst_ip, dst_ip);
        out.field_u64(self.f.dst_port, u64::from(dst_port));
        out.end_row();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::tests::parse_rows;
    use netalytics_data::{DataTuple, Value};
    use std::net::Ipv4Addr;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn run(pkts: &[Packet]) -> Vec<DataTuple> {
        parse_rows(&mut TcpConnTimeParser::new(), pkts)
    }

    #[test]
    fn syn_and_fin_events_share_id() {
        let syn = Packet::tcp(A, 4000, B, 80, TcpFlags::SYN, 0, 0, b"").at_time(100);
        // Server closes: FIN travels B -> A.
        let fin =
            Packet::tcp(B, 80, A, 4000, TcpFlags::FIN | TcpFlags::ACK, 9, 9, b"").at_time(5_100);
        let out = run(&[syn, fin]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].get("event").and_then(Value::as_str), Some("start"));
        assert_eq!(out[0].id, out[1].id, "start/end must join on one ID");
        assert_eq!(out[0].get("t_ns").and_then(Value::as_u64), Some(100));
        // Field names, order and value types, as the processors read
        // them; the server-side close still reports the server as dst.
        assert_eq!(
            out[1],
            DataTuple::new(out[0].id, 5_100)
                .from_source("tcp_conn_time")
                .with("event", "end")
                .with("t_ns", 5_100u64)
                .with("src_ip", "10.0.0.1")
                .with("dst_ip", "10.0.0.2")
                .with("dst_port", 80u64)
        );
    }

    #[test]
    fn syn_ack_and_data_are_ignored() {
        let synack = Packet::tcp(B, 80, A, 4000, TcpFlags::SYN | TcpFlags::ACK, 0, 1, b"");
        let data = Packet::tcp(A, 4000, B, 80, TcpFlags::PSH | TcpFlags::ACK, 1, 1, b"x");
        assert!(run(&[synack, data]).is_empty());
    }

    #[test]
    fn rst_counts_as_end() {
        let rst = Packet::tcp(A, 4000, B, 80, TcpFlags::RST, 0, 0, b"");
        let out = run(&[rst]);
        assert_eq!(out[0].get("event").and_then(Value::as_str), Some("end"));
    }

    #[test]
    fn non_tcp_ignored() {
        let udp = Packet::udp(A, 1, B, 2, b"");
        assert!(run(&[udp]).is_empty());
    }
}
