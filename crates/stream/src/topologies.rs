//! The catalog of prebuilt topologies named by the query language's
//! `PROCESS` clause (paper §3.2-3.3).

use std::collections::HashMap;

use netalytics_sketch::PreAggSpec;
use netalytics_telemetry::MetricsRegistry;

use crate::bolt::Grouping;
use crate::bolts::{
    AggBolt, AggOp, CdfBolt, DiffBolt, HistogramBolt, JoinBolt, KeyExtractBolt, RankBolt,
    RequestTimeJoinBolt, RollingCountBolt, SketchBolt, SketchCounters,
};
use crate::topology::{SourceRef, Topology, TopologyError};

/// A processor requested by a query: name plus `key=value` arguments,
/// e.g. `(top-k: k=10, w=10s)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProcessorSpec {
    /// Catalog name (`top-k`, `diff-group`, ...).
    pub name: String,
    /// Arguments in query order.
    pub args: Vec<(String, String)>,
}

impl ProcessorSpec {
    /// Creates a spec with no arguments.
    pub fn new(name: impl Into<String>) -> Self {
        ProcessorSpec {
            name: name.into(),
            args: Vec::new(),
        }
    }

    /// Builder: appends an argument.
    pub fn with_arg(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.args.push((key.into(), value.into()));
        self
    }

    /// Looks up an argument value.
    pub fn arg(&self, key: &str) -> Option<&str> {
        self.args
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Error building a topology from a [`ProcessorSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// No topology with this name exists.
    UnknownProcessor(String),
    /// An argument failed to parse.
    BadArgument {
        /// The argument name.
        arg: String,
        /// Why it was rejected.
        reason: String,
    },
    /// The assembled topology was invalid (internal error).
    Topology(TopologyError),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::UnknownProcessor(n) => write!(
                f,
                "unknown processor {n:?}; valid processors: {}",
                CATALOG.join(", ")
            ),
            CatalogError::BadArgument { arg, reason } => {
                write!(f, "bad argument {arg:?}: {reason}")
            }
            CatalogError::Topology(e) => write!(f, "topology error: {e}"),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<TopologyError> for CatalogError {
    fn from(e: TopologyError) -> Self {
        CatalogError::Topology(e)
    }
}

/// Names of all catalog processors.
pub const CATALOG: [&str; 14] = [
    "top-k",
    "diff-group",
    "diff-group-avg",
    "group-sum",
    "group-avg",
    "agg",
    "histogram",
    "cdf",
    "url-cdf",
    "url-avg",
    "join",
    "heavy-hitters",
    "distinct",
    "quantile",
];

type Args<'a> = HashMap<&'a str, &'a str>;

fn args_of(spec: &ProcessorSpec) -> Args<'_> {
    spec.args
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect()
}

fn bad(arg: &str, reason: impl Into<String>) -> CatalogError {
    CatalogError::BadArgument {
        arg: arg.into(),
        reason: reason.into(),
    }
}

/// Parses a duration argument like `10s`, `500ms`, `90` (seconds).
fn parse_window(s: &str) -> Result<u64, CatalogError> {
    let bad = |reason: &str| bad("w", reason);
    let (num, mult) = if let Some(x) = s.strip_suffix("ms") {
        (x, 1_000_000)
    } else if let Some(x) = s.strip_suffix('s') {
        (x, 1_000_000_000)
    } else {
        (s, 1_000_000_000)
    };
    let n: u64 = num.parse().map_err(|_| bad("not a number"))?;
    if n == 0 {
        return Err(bad("window must be positive"));
    }
    Ok(n * mult)
}

/// Builds a topology from a query [`ProcessorSpec`].
///
/// Supported processors and their arguments:
///
/// * `top-k`: `k` (default 10), `w` (window, default 10s), `key`
///   (input field holding the ranking key, default `url`), `par`.
/// * `diff-group` / `diff-group-avg`: `group` (attribute to group by,
///   default `dst_ip`), `value` (field to diff, default `t_ns`).
/// * `group-sum` / `group-avg`: `group` (use `a+b` for multi-attribute
///   grouping), `value`.
/// * `histogram`: `value` (default `diff_ms`), `bucket` (width, default 10).
/// * `cdf`: `value`, `group`.
/// * `url-cdf` / `url-avg`: per-page response times by joining `http_get`
///   with `tcp_conn_time` (§7.2).
/// * `join`: merge two parser streams on the tuple ID (`left`, `right`) —
///   the paper's future-work operator.
/// * `agg`: one grouped aggregate picked by name — `op` (one of
///   [`AggOp::NAMES`]), `group`, `value`.
/// * `heavy-hitters`: sketch-backed top-k — `k` (default 10), `eps`
///   (per-key error bound as a fraction of traffic, default 0.001),
///   `key` (default `url`), `w`, `par`. `O(1/eps)` memory per bolt.
/// * `distinct`: HyperLogLog distinct count — `field` (default `url`),
///   `p` (precision, default 12), `w`, `par`.
/// * `quantile`: mergeable log-bucketed quantiles — `value` (default
///   `t_ns`), `q` (`+`-separated quantiles, default `0.5+0.95+0.99`),
///   `w`, `par`.
///
/// # Errors
///
/// Returns [`CatalogError`] for unknown names or invalid arguments.
pub fn build(spec: &ProcessorSpec) -> Result<Topology, CatalogError> {
    build_with(spec, None)
}

/// [`build`] with an optional metrics registry: sketch processors
/// register their `sketch.bytes` / `sketch.merges` / `sketch.rejected` /
/// error instruments there (the orchestrator passes its root registry).
///
/// # Errors
///
/// Returns [`CatalogError`] for unknown names or invalid arguments.
pub fn build_with(
    spec: &ProcessorSpec,
    metrics: Option<&MetricsRegistry>,
) -> Result<Topology, CatalogError> {
    let args = args_of(spec);
    let group = args.get("group").copied().unwrap_or("dst_ip").to_owned();
    let value = args.get("value").copied().unwrap_or("t_ns").to_owned();
    let par = parse_num::<usize>(&args, "par", 1)?;
    if let Some(sketch) = sketch_spec(spec)? {
        return build_sketch(spec, sketch, &args, par, metrics);
    }

    match spec.name.as_str() {
        "top-k" => {
            let k = positive_k(&args)?;
            let window_ns = window_arg(&args)?;
            let key_field = args.get("key").copied().unwrap_or("url").to_owned();
            let mut b = Topology::builder("top-k");
            let kf = key_field.clone();
            let parse = b.add_bolt("parsing", par, move || {
                Box::new(KeyExtractBolt::new(kf.clone()))
            });
            let count = b.add_bolt("counting", par, move || {
                Box::new(RollingCountBolt::new(window_ns))
            });
            let local = b.add_bolt("rank_local", par, move || Box::new(RankBolt::new(k)));
            let global = b.add_bolt("rank_global", 1, move || Box::new(RankBolt::new(k)));
            b.wire(SourceRef::Spout, parse, Grouping::Shuffle);
            b.wire(
                SourceRef::Bolt(parse),
                count,
                Grouping::Fields(vec!["key".into()]),
            );
            b.wire(
                SourceRef::Bolt(count),
                local,
                Grouping::Fields(vec!["key".into()]),
            );
            b.wire(SourceRef::Bolt(local), global, Grouping::Global);
            Ok(b.build()?)
        }
        "diff-group" | "diff-group-avg" => {
            let avg = spec.name.ends_with("avg");
            let mut b = Topology::builder(&spec.name);
            let v = value.clone();
            let diff = b.add_bolt("diff", par, move || Box::new(DiffBolt::new(v.clone())));
            b.wire(SourceRef::Spout, diff, Grouping::ById);
            if avg {
                let g = group.clone();
                let agg = b.add_bolt("group_avg", 1, move || {
                    Box::new(AggBolt::new(AggOp::Avg, "diff_ms", vec![g.clone()]))
                });
                b.wire(SourceRef::Bolt(diff), agg, Grouping::Global);
            }
            Ok(b.build()?)
        }
        "group-sum" | "group-avg" => {
            let op = if spec.name == "group-sum" {
                AggOp::Sum
            } else {
                AggOp::Avg
            };
            let mut b = Topology::builder(&spec.name);
            // `group=src_ip+dst_ip` groups by several attributes at once.
            let groups: Vec<String> = group.split('+').map(str::to_owned).collect();
            let v = value.clone();
            let agg = b.add_bolt("agg", 1, move || {
                Box::new(AggBolt::new(op, v.clone(), groups.clone()))
            });
            b.wire(SourceRef::Spout, agg, Grouping::Global);
            Ok(b.build()?)
        }
        "url-cdf" | "url-avg" => {
            // §7.2: join http_get URLs with tcp_conn_time durations, then
            // summarize per page.
            let mut b = Topology::builder(&spec.name);
            let join = b.add_bolt("url_join", 1, || Box::new(RequestTimeJoinBolt::new()));
            b.wire(SourceRef::Spout, join, Grouping::Global);
            if spec.name == "url-cdf" {
                let cdf = b.add_bolt("cdf", 1, || {
                    Box::new(CdfBolt::new("diff_ms").grouped_by("url"))
                });
                b.wire(SourceRef::Bolt(join), cdf, Grouping::Global);
            } else {
                let agg = b.add_bolt("group_avg", 1, || {
                    Box::new(AggBolt::new(AggOp::Avg, "diff_ms", vec!["url".into()]))
                });
                b.wire(SourceRef::Bolt(join), agg, Grouping::Global);
            }
            Ok(b.build()?)
        }
        "histogram" => {
            let bucket = parse_num::<f64>(&args, "bucket", 10.0)?;
            if bucket <= 0.0 {
                return Err(bad("bucket", "must be positive"));
            }
            let value = args.get("value").copied().unwrap_or("diff_ms").to_owned();
            let mut b = Topology::builder("histogram");
            let h = b.add_bolt("histogram", 1, move || {
                Box::new(HistogramBolt::new(value.clone(), bucket))
            });
            b.wire(SourceRef::Spout, h, Grouping::Global);
            Ok(b.build()?)
        }
        "cdf" => {
            let value = args.get("value").copied().unwrap_or("diff_ms").to_owned();
            let group_arg = args.get("group").map(|s| s.to_string());
            let mut b = Topology::builder("cdf");
            let h = b.add_bolt("cdf", 1, move || {
                let bolt = CdfBolt::new(value.clone());
                Box::new(match &group_arg {
                    Some(g) => bolt.grouped_by(g.clone()),
                    None => bolt,
                })
            });
            b.wire(SourceRef::Spout, h, Grouping::Global);
            Ok(b.build()?)
        }
        "join" => {
            // The paper's future-work operator: merge two parser streams
            // on the tuple ID, e.g. (join: left=http_get,
            // right=tcp_conn_time). Downstream analysis can be appended
            // as a second PROCESS entry over the merged stream.
            let left = args.get("left").copied().unwrap_or("http_get").to_owned();
            let right = args
                .get("right")
                .copied()
                .unwrap_or("tcp_conn_time")
                .to_owned();
            if left == right {
                return Err(bad("right", "join sides must differ"));
            }
            let mut b = Topology::builder("join");
            let (l, r) = (left.clone(), right.clone());
            let j = b.add_bolt("join", par, move || {
                Box::new(JoinBolt::new(l.clone(), r.clone()))
            });
            b.wire(SourceRef::Spout, j, Grouping::ById);
            Ok(b.build()?)
        }
        "agg" => {
            let op = AggOp::parse(args.get("op").copied().unwrap_or("avg"))
                .map_err(|e| bad("op", e.to_string()))?;
            let mut b = Topology::builder("agg");
            let groups: Vec<String> = group.split('+').map(str::to_owned).collect();
            let v = value.clone();
            let agg = b.add_bolt("agg", 1, move || {
                Box::new(AggBolt::new(op, v.clone(), groups.clone()))
            });
            b.wire(SourceRef::Spout, agg, Grouping::Global);
            Ok(b.build()?)
        }
        other => Err(CatalogError::UnknownProcessor(other.to_owned())),
    }
}

/// Which sketch a processor folds which field into — `None` for the
/// processors that are not sketch-backed. The one place the sketch
/// processors' names, field and dimension arguments, their defaults and
/// their validation live: [`build_with`] builds the topology from it and
/// the orchestrator hands the same spec to the monitors, so the two
/// sides of a delta cannot disagree.
///
/// # Errors
///
/// [`CatalogError::BadArgument`] for an `eps` outside `(0, 1]` or a `p`
/// outside `4..=16`.
pub fn sketch_spec(spec: &ProcessorSpec) -> Result<Option<PreAggSpec>, CatalogError> {
    let args = args_of(spec);
    let field = |name: &str, default: &str| args.get(name).copied().unwrap_or(default).to_owned();
    Ok(Some(match spec.name.as_str() {
        "heavy-hitters" => {
            let eps = parse_num::<f64>(&args, "eps", 0.001)?;
            if !(eps > 0.0 && eps <= 1.0) {
                return Err(bad("eps", "eps must be in (0, 1]"));
            }
            PreAggSpec::HeavyHitters {
                key_field: field("key", "url"),
                eps,
            }
        }
        "distinct" => {
            let precision = parse_num::<u8>(&args, "p", netalytics_sketch::DEFAULT_PRECISION)?;
            if !(4..=16).contains(&precision) {
                return Err(bad("p", "precision must be in 4..=16"));
            }
            PreAggSpec::Distinct {
                field: field("field", "url"),
                precision,
            }
        }
        "quantile" => PreAggSpec::Quantile {
            value_field: field("value", "t_ns"),
        },
        _ => return Ok(None),
    }))
}

/// The intermediate → total reduction tree (Fig. 4) over one sketch:
/// `par` local [`SketchBolt`]s feeding one global.
fn build_sketch(
    spec: &ProcessorSpec,
    sketch: PreAggSpec,
    args: &Args<'_>,
    par: usize,
    metrics: Option<&MetricsRegistry>,
) -> Result<Topology, CatalogError> {
    let (prefix, grouping, k, qs) = match &sketch {
        // Fields-grouped like the Parsing→Counting edge (§5.3): each
        // key is folded whole by one local instance, so local counts
        // are exact and the global merge never splits a key.
        PreAggSpec::HeavyHitters { key_field, .. } => (
            "hh",
            Grouping::Fields(vec![key_field.clone()]),
            positive_k(args)?,
            Vec::new(),
        ),
        // Registerwise-max merging makes shuffle routing safe.
        PreAggSpec::Distinct { .. } => ("distinct", Grouping::Shuffle, 0, Vec::new()),
        PreAggSpec::Quantile { .. } => {
            let quantile = |s: &str| {
                let q = s.parse::<f64>().ok().filter(|q| (0.0..=1.0).contains(q));
                q.ok_or_else(|| bad("q", format!("{s:?} is not a quantile in 0..=1")))
            };
            let qs = args.get("q").copied().unwrap_or("0.5+0.95+0.99");
            let qs = qs.split('+').map(quantile).collect::<Result<_, _>>()?;
            ("quantile", Grouping::Shuffle, 0, qs)
        }
    };
    let window_ns = window_arg(args)?;
    let counters = metrics.map(|m| SketchCounters::register(m, &spec.name));
    let mut b = Topology::builder(&spec.name);
    let (s, c) = (sketch.clone(), counters.clone());
    let local = b.add_bolt(format!("{prefix}_local"), par, move || {
        Box::new(SketchBolt::local(s.clone(), window_ns, c.clone()))
    });
    let global = b.add_bolt(format!("{prefix}_global"), 1, move || {
        Box::new(SketchBolt::global(
            sketch.clone(),
            k,
            qs.clone(),
            window_ns,
            counters.clone(),
        ))
    });
    b.wire(SourceRef::Spout, local, grouping);
    b.wire(SourceRef::Bolt(local), global, Grouping::Global);
    Ok(b.build()?)
}

/// The `w` argument, defaulting to ten seconds.
fn window_arg(args: &Args<'_>) -> Result<u64, CatalogError> {
    Ok(args
        .get("w")
        .map(|s| parse_window(s))
        .transpose()?
        .unwrap_or(10_000_000_000))
}

/// The `k` argument (default 10), which must be positive.
fn positive_k(args: &Args<'_>) -> Result<usize, CatalogError> {
    match parse_num::<usize>(args, "k", 10)? {
        0 => Err(bad("k", "k must be positive")),
        k => Ok(k),
    }
}

/// Parses a numeric argument with a default, mapping parse failures to
/// a [`CatalogError::BadArgument`] naming the argument.
fn parse_num<T: std::str::FromStr>(
    args: &Args<'_>,
    name: &str,
    default: T,
) -> Result<T, CatalogError> {
    args.get(name)
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| bad(name, "not a number"))
        .map(|v| v.unwrap_or(default))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inline::InlineExecutor;
    use netalytics_data::{DataTuple, Value};

    #[test]
    fn catalog_names_all_build() {
        for name in CATALOG {
            let spec = ProcessorSpec::new(name);
            assert!(build(&spec).is_ok(), "{name} failed to build");
        }
    }

    #[test]
    fn unknown_processor_rejected() {
        assert!(matches!(
            build(&ProcessorSpec::new("tumble-window")),
            Err(CatalogError::UnknownProcessor(_))
        ));
    }

    #[test]
    fn bad_args_rejected() {
        assert!(build(&ProcessorSpec::new("top-k").with_arg("k", "zero")).is_err());
        assert!(build(&ProcessorSpec::new("top-k").with_arg("k", "0")).is_err());
        assert!(build(&ProcessorSpec::new("top-k").with_arg("w", "0s")).is_err());
        assert!(build(&ProcessorSpec::new("histogram").with_arg("bucket", "-5")).is_err());
        assert!(build(&ProcessorSpec::new("top-k").with_arg("par", "x")).is_err());
        assert!(build(&ProcessorSpec::new("heavy-hitters").with_arg("k", "0")).is_err());
        assert!(build(&ProcessorSpec::new("heavy-hitters").with_arg("eps", "2")).is_err());
        assert!(build(&ProcessorSpec::new("distinct").with_arg("p", "30")).is_err());
        assert!(build(&ProcessorSpec::new("quantile").with_arg("q", "0.5+nope")).is_err());
    }

    /// Every bad argument the catalog rejects is a `BadArgument` naming
    /// that argument — pinned before the sketch arms were folded into
    /// [`sketch_spec`] and every arm moved to `parse_num`.
    #[test]
    fn rejections_name_the_argument() {
        let table = [
            ("heavy-hitters", "eps", "7"),
            ("heavy-hitters", "eps", "0"),
            ("heavy-hitters", "eps", "tiny"),
            ("heavy-hitters", "k", "0"),
            ("heavy-hitters", "k", "-1"),
            ("heavy-hitters", "w", "0"),
            ("heavy-hitters", "par", "x"),
            ("distinct", "p", "3"),
            ("distinct", "p", "17"),
            ("distinct", "p", "300"),
            ("distinct", "w", "0ms"),
            ("distinct", "par", "x"),
            ("quantile", "q", "1.5"),
            ("quantile", "q", "0.5+"),
            ("quantile", "w", "soon"),
            ("quantile", "par", "x"),
            ("top-k", "k", "0"),
            ("top-k", "k", "ten"),
            ("top-k", "w", "0"),
            ("top-k", "par", "x"),
            ("histogram", "bucket", "-1"),
            ("histogram", "bucket", "0"),
            ("histogram", "bucket", "wide"),
            ("histogram", "par", "x"),
        ];
        for (name, arg, value) in table {
            let spec = ProcessorSpec::new(name).with_arg(arg, value);
            match build(&spec) {
                Err(CatalogError::BadArgument { arg: named, .. }) => {
                    assert_eq!(named, arg, "{name}: {arg}={value}")
                }
                other => panic!("{name}: {arg}={value} gave {other:?}"),
            }
        }
        // Arguments a processor does not read are not validated.
        assert!(build(&ProcessorSpec::new("distinct").with_arg("k", "0")).is_ok());
        assert!(build(&ProcessorSpec::new("quantile").with_arg("eps", "7")).is_ok());
    }

    /// The spec the monitors fold under is the one the topology was
    /// built from: same defaults, same validation, nothing else parsed.
    #[test]
    fn sketch_spec_carries_the_catalog_defaults() {
        let of = |spec: &ProcessorSpec| sketch_spec(spec).unwrap();
        assert_eq!(
            of(&ProcessorSpec::new("heavy-hitters")),
            Some(PreAggSpec::HeavyHitters {
                key_field: "url".into(),
                eps: 0.001
            })
        );
        assert_eq!(
            of(&ProcessorSpec::new("distinct").with_arg("field", "src_ip")),
            Some(PreAggSpec::Distinct {
                field: "src_ip".into(),
                precision: netalytics_sketch::DEFAULT_PRECISION
            })
        );
        assert_eq!(
            of(&ProcessorSpec::new("quantile")),
            Some(PreAggSpec::Quantile {
                value_field: "t_ns".into()
            })
        );
        assert_eq!(of(&ProcessorSpec::new("top-k")), None);
        assert!(sketch_spec(&ProcessorSpec::new("distinct").with_arg("p", "x")).is_err());
    }

    #[test]
    fn agg_unknown_op_lists_valid_operators() {
        let err = build(&ProcessorSpec::new("agg").with_arg("op", "median")).unwrap_err();
        let CatalogError::BadArgument { arg, reason } = &err else {
            panic!("expected BadArgument, got {err:?}");
        };
        assert_eq!(arg, "op");
        for name in AggOp::NAMES {
            assert!(reason.contains(name), "{reason:?} missing {name}");
        }
    }

    #[test]
    fn unknown_processor_error_lists_catalog() {
        let msg = build(&ProcessorSpec::new("nope")).unwrap_err().to_string();
        assert!(
            msg.contains("heavy-hitters") && msg.contains("top-k"),
            "{msg}"
        );
    }

    #[test]
    fn heavy_hitters_end_to_end_matches_exact_counts() {
        let topo = build(
            &ProcessorSpec::new("heavy-hitters")
                .with_arg("k", "2")
                .with_arg("eps", "0.01")
                .with_arg("par", "3"),
        )
        .unwrap();
        let mut exec = InlineExecutor::new(&topo);
        let mut i = 0;
        for (url, n) in [("/hot", 5), ("/warm", 3), ("/cold", 1)] {
            for _ in 0..n {
                exec.push(DataTuple::new(i, 1_000 + i).with("url", url));
                i += 1;
            }
        }
        exec.finish(20_000_000_000);
        let out = exec.take_output();
        let ranked: Vec<(String, u64)> = out
            .iter()
            .filter(|t| t.source == "rank")
            .filter_map(|t| {
                Some((
                    t.get("key")?.to_string(),
                    t.get("count").and_then(Value::as_u64)?,
                ))
            })
            .collect();
        // Far under capacity: the sketch is exact here.
        assert_eq!(ranked, vec![("/hot".into(), 5), ("/warm".into(), 3)]);
        // A persistable sketch snapshot tuple accompanies the ranking.
        assert!(out.iter().any(|t| t.source == "sketch"));
    }

    #[test]
    fn quantile_end_to_end() {
        let topo = build(
            &ProcessorSpec::new("quantile")
                .with_arg("value", "t_ns")
                .with_arg("q", "0.5"),
        )
        .unwrap();
        let mut exec = InlineExecutor::new(&topo);
        for v in 1..=1000u64 {
            exec.push(DataTuple::new(v, v).with("t_ns", v));
        }
        exec.finish(20_000_000_000);
        let out = exec.take_output();
        let p50 = out
            .iter()
            .find(|t| t.source == "quantile")
            .and_then(|t| t.get("value").and_then(Value::as_u64))
            .unwrap();
        assert!((440..=510).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn distinct_end_to_end() {
        let topo = build(
            &ProcessorSpec::new("distinct")
                .with_arg("field", "url")
                .with_arg("par", "4"),
        )
        .unwrap();
        let mut exec = InlineExecutor::new(&topo);
        for i in 0..500u64 {
            // Each URL appears twice; true distinct = 500.
            exec.push(DataTuple::new(i, 1).with("url", format!("/p{}", i % 500)));
            exec.push(DataTuple::new(i, 2).with("url", format!("/p{}", i % 500)));
        }
        exec.finish(20_000_000_000);
        let out = exec.take_output();
        let d = out
            .iter()
            .find(|t| t.source == "distinct")
            .and_then(|t| t.get("distinct").and_then(Value::as_u64))
            .unwrap();
        assert!((460..=540).contains(&d), "distinct = {d} for 500 true");
    }

    #[test]
    fn window_parsing() {
        assert_eq!(parse_window("10s").unwrap(), 10_000_000_000);
        assert_eq!(parse_window("500ms").unwrap(), 500_000_000);
        assert_eq!(parse_window("3").unwrap(), 3_000_000_000);
        assert!(parse_window("abc").is_err());
    }

    #[test]
    fn top_k_end_to_end() {
        let topo = build(
            &ProcessorSpec::new("top-k")
                .with_arg("k", "2")
                .with_arg("w", "10s")
                .with_arg("par", "3"),
        )
        .unwrap();
        let mut exec = InlineExecutor::new(&topo);
        // /hot 5x, /warm 3x, /cold 1x across many flows.
        let mut i = 0;
        for (url, n) in [("/hot", 5), ("/warm", 3), ("/cold", 1)] {
            for _ in 0..n {
                exec.push(DataTuple::new(i, 1_000 + i).with("url", url));
                i += 1;
            }
        }
        exec.finish(20_000_000_000);
        let out = exec.take_output();
        let keys: Vec<_> = out
            .iter()
            .filter_map(|t| t.get("key").and_then(Value::as_str))
            .collect();
        assert_eq!(keys, vec!["/hot", "/warm"], "global top-2 in rank order");
        let counts: Vec<_> = out
            .iter()
            .filter_map(|t| t.get("count").and_then(Value::as_u64))
            .collect();
        assert_eq!(counts, vec![5, 3]);
    }

    #[test]
    fn diff_group_avg_end_to_end() {
        let topo = build(
            &ProcessorSpec::new("diff-group-avg")
                .with_arg("group", "dst_ip")
                .with_arg("value", "t_ns"),
        )
        .unwrap();
        let mut exec = InlineExecutor::new(&topo);
        // Two connections to .9 (4ms, 6ms), one to .8 (10ms).
        for (id, dst, t0, t1) in [
            (1u64, "10.0.0.9", 0u64, 4_000_000u64),
            (2, "10.0.0.9", 0, 6_000_000),
            (3, "10.0.0.8", 0, 10_000_000),
        ] {
            exec.push(DataTuple::new(id, t0).with("dst_ip", dst).with("t_ns", t0));
            exec.push(DataTuple::new(id, t1).with("dst_ip", dst).with("t_ns", t1));
        }
        exec.finish(1);
        let out = exec.take_output();
        assert_eq!(out.len(), 2);
        let nine = out
            .iter()
            .find(|t| t.get("dst_ip").and_then(Value::as_str) == Some("10.0.0.9"))
            .unwrap();
        assert_eq!(nine.get("avg").and_then(Value::as_f64), Some(5.0));
    }
}

#[cfg(test)]
mod join_tests {
    use super::*;
    use crate::inline::InlineExecutor;
    use netalytics_data::{DataTuple, Value};

    #[test]
    fn join_processor_merges_parser_streams() {
        let topo = build(
            &ProcessorSpec::new("join")
                .with_arg("left", "http_get")
                .with_arg("right", "tcp_conn_time"),
        )
        .unwrap();
        let mut exec = InlineExecutor::new(&topo);
        exec.push(
            DataTuple::new(9, 1)
                .from_source("http_get")
                .with("url", "/x"),
        );
        exec.push(
            DataTuple::new(9, 2)
                .from_source("tcp_conn_time")
                .with("event", "start"),
        );
        let out = exec.take_output();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get("url").and_then(Value::as_str), Some("/x"));
        assert_eq!(out[0].get("event").and_then(Value::as_str), Some("start"));
    }

    #[test]
    fn join_rejects_identical_sides() {
        assert!(build(
            &ProcessorSpec::new("join")
                .with_arg("left", "x")
                .with_arg("right", "x")
        )
        .is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::inline::InlineExecutor;
    use netalytics_data::{DataTuple, Value};
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The parallel count→rank reduction is exact: for any key
        /// stream and parallelism, the final global ranking reports the
        /// true per-key totals in the correct order.
        #[test]
        fn top_k_ranking_matches_naive_count(
            keys in proptest::collection::vec(0u8..12, 1..300),
            par in 1usize..5,
            k in 1usize..8,
        ) {
            let topo = build(
                &ProcessorSpec::new("top-k")
                    .with_arg("k", k.to_string())
                    .with_arg("par", par.to_string())
                    .with_arg("w", "3600s")
                    .with_arg("key", "url"),
            )
            .unwrap();
            let mut exec = InlineExecutor::new(&topo);
            let mut truth: HashMap<String, u64> = HashMap::new();
            for (i, key) in keys.iter().enumerate() {
                let url = format!("/k{key}");
                *truth.entry(url.clone()).or_default() += 1;
                exec.push(DataTuple::new(i as u64, 1).with("url", url));
            }
            exec.finish(2);
            let out = exec.take_output();
            let mut ranked: Vec<(String, u64)> = out
                .iter()
                .filter_map(|t| {
                    Some((
                        t.get("key")?.to_string(),
                        t.get("count").and_then(Value::as_u64)?,
                    ))
                })
                .collect();
            // Expected: top-k of the truth, count desc then key asc.
            let mut expect: Vec<(String, u64)> = truth.into_iter().collect();
            expect.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            expect.truncate(k);
            ranked.truncate(k);
            prop_assert_eq!(ranked, expect);
        }

        /// diff-group pairs every id exactly once whatever the arrival
        /// interleaving.
        #[test]
        fn diff_group_is_exact_under_interleaving(
            n in 1usize..60,
            seed in any::<u64>(),
        ) {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let topo = build(&ProcessorSpec::new("diff-group")).unwrap();
            let mut exec = InlineExecutor::new(&topo);
            // Two events per id, shuffled.
            let mut events: Vec<(u64, u64)> = (0..n as u64)
                .flat_map(|id| [(id, 1_000_000 * id), (id, 1_000_000 * id + 2_000_000)])
                .collect();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            events.shuffle(&mut rng);
            for (id, t) in events {
                exec.push(
                    DataTuple::new(id, t)
                        .with("dst_ip", "10.0.0.9")
                        .with("t_ns", t),
                );
            }
            exec.finish(1);
            let out = exec.take_output();
            prop_assert_eq!(out.len(), n, "one diff per id");
            for t in &out {
                prop_assert_eq!(t.get("diff_ms").and_then(Value::as_f64), Some(2.0));
            }
        }
    }
}
