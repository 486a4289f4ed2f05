//! Micro-benchmarks of the hot paths underneath every experiment:
//! flow-table lookup (per-packet at each switch), the row tuple codec (the
//! store's on-disk frame), flow hashing/sampling (per packet at the
//! collector), and the top-k counting bolt (per tuple at the processor).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use netalytics_data::DataTuple;
use netalytics_monitor::{FlowSampler, SampleSpec};
use netalytics_packet::{FlowKey, IpProto, Packet, TcpFlags};
use netalytics_sdn::{Action, FlowMatch, FlowRule, FlowTable};
use netalytics_stream::bolts::RollingCountBolt;
use netalytics_stream::Bolt;

fn bench_micro(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro");
    group.throughput(Throughput::Elements(1));

    group.bench_function("flow_table_lookup_64_rules", |b| {
        let mut table = FlowTable::new();
        for i in 0..64u16 {
            table.install(
                FlowRule::new(
                    FlowMatch::any()
                        .to_host(format!("10.0.9.{}", i % 250).parse().unwrap(), Some(80 + i)),
                    vec![Action::Native],
                )
                .with_priority(i),
            );
        }
        let flow = FlowKey::new(
            "10.0.2.8".parse().unwrap(),
            5555,
            "10.0.9.3".parse().unwrap(),
            83,
            IpProto::Tcp,
        );
        b.iter(|| table.lookup(&flow, 64).map(<[Action]>::len));
    });

    group.bench_function("flow_hash", |b| {
        let flow = FlowKey::new(
            "10.0.2.8".parse().unwrap(),
            5555,
            "10.0.2.9".parse().unwrap(),
            80,
            IpProto::Tcp,
        );
        b.iter(|| flow.stable_hash());
    });

    group.bench_function("sampler_accept", |b| {
        let mut sampler = FlowSampler::new(SampleSpec::Rate(0.1));
        let pkt = Packet::tcp(
            "10.0.2.8".parse().unwrap(),
            5555,
            "10.0.2.9".parse().unwrap(),
            80,
            TcpFlags::ACK,
            0,
            0,
            b"",
        );
        b.iter(|| sampler.accept(&pkt));
    });

    group.bench_function("tuple_encode_decode", |b| {
        let t = DataTuple::new(0xfeed, 123)
            .from_source("http_get")
            .with("url", "/videos/12345")
            .with("t_ns", 987_654_321u64);
        b.iter(|| {
            let mut enc = t.encode();
            DataTuple::decode(&mut enc).unwrap()
        });
    });

    group.bench_function("rolling_count_execute", |b| {
        let mut bolt = RollingCountBolt::new(u64::MAX / 2);
        let tuples: Vec<DataTuple> = (0..64)
            .map(|i| DataTuple::new(i, 0).with("key", format!("/u{}", i % 16)))
            .collect();
        let mut out = Vec::new();
        let mut i = 0;
        b.iter(|| {
            bolt.execute(&tuples[i % 64], &mut out);
            i += 1;
            out.clear();
        });
    });

    group.finish();
}

criterion_group!(benches, bench_micro);
criterion_main!(benches);
