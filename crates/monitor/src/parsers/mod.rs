//! The six stock parsers of paper Table 1.
//!
//! | Parser | Layer | Description |
//! |---|---|---|
//! | `tcp_flow_key` | Net | extract src_ip, dst_ip, src_port, dst_port |
//! | `tcp_conn_time` | Net | detect SYN/FIN/RST flags |
//! | `tcp_pkt_size` | Net | calculate tcp packet size |
//! | `memcached_get` | App | parse memcached get request |
//! | `http_get` | App | parse http get request and response |
//! | `mysql_query` | App | parse mysql query and response |

use std::net::Ipv4Addr;

use netalytics_data::{BatchBuilder, FieldId};

mod http_get;
mod memcached_get;
mod mysql_query;
mod tcp_conn_time;
mod tcp_flow_key;
mod tcp_pkt_size;

pub use http_get::HttpGetParser;
pub use memcached_get::MemcachedGetParser;
pub use mysql_query::MysqlQueryParser;
pub use tcp_conn_time::TcpConnTimeParser;
pub use tcp_flow_key::TcpFlowKeyParser;
pub use tcp_pkt_size::TcpPktSizeParser;

/// The stock parsers' output schema: one interned [`FieldId`] per field
/// name of Table 1's tuples, under the name itself. Each parser interns
/// the table once, at construction, and never hashes a name per packet.
macro_rules! stock_fields {
    ($($name:ident),*) => {
        #[derive(Debug, Clone, Copy)]
        struct Fields {
            $($name: FieldId),*
        }

        impl Default for Fields {
            fn default() -> Self {
                Fields {
                    $($name: FieldId::intern(stringify!($name))),*
                }
            }
        }
    };
}
stock_fields!(
    kind, url, status, src_ip, dst_ip, src_port, dst_port, t_ns, event, bytes, pkts, key, hit, sql,
    rt_ms
);

/// Appends `ip` in dotted-quad form as a string field of the open row.
/// Two of these run per parsed packet, so the digits are written by hand
/// onto the stack rather than through `fmt`.
fn field_ip(out: &mut BatchBuilder, field: FieldId, ip: Ipv4Addr) {
    let mut buf = [b'.'; 15];
    let mut len = 0;
    for octet in ip.octets() {
        if octet >= 100 {
            buf[len] = b'0' + octet / 100;
            len += 1;
        }
        if octet >= 10 {
            buf[len] = b'0' + octet / 10 % 10;
            len += 1;
        }
        buf[len] = b'0' + octet % 10;
        len += 2; // the digit, then the '.' already there
    }
    let text = std::str::from_utf8(&buf[..len - 1]).expect("digits and dots are ASCII");
    out.field_str(field, text);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_ip_matches_display() {
        let f = FieldId::intern("ip");
        let mut out = BatchBuilder::new();
        let ips = [
            [0, 0, 0, 0],
            [10, 0, 2, 9],
            [192, 168, 100, 1],
            [255, 255, 255, 255],
        ];
        for (i, ip) in ips.into_iter().enumerate() {
            out.begin_row(i as u64, 0, "t");
            field_ip(&mut out, f, Ipv4Addr::from(ip));
            out.end_row();
        }
        let got: Vec<String> = out
            .finish()
            .strs(f)
            .unwrap()
            .iter()
            .map(String::from)
            .collect();
        let want: Vec<String> = ips.map(|ip| Ipv4Addr::from(ip).to_string()).into();
        assert_eq!(got, want);
    }
}
