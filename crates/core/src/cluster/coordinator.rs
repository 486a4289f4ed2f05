//! The cluster coordinator: shard construction, request routing,
//! merged views and pod-level chaos.

use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

use netalytics_netsim::{App, FatTree, HostIdx, SimDuration, SimTime};
use netalytics_store::{ResultBackend, ShardedStore};
use netalytics_stream::SubscriptionHub;
use netalytics_telemetry::{
    Introspection, Journal, MetricsRegistry, QueryDirectory, RegistrySnapshot, TraceConfig, Tracer,
};
use parking_lot::Mutex;

use super::shard::ClusterShard;
use crate::admission::Tenant;
use crate::orchestrator::{
    FailurePolicy, Orchestrator, OrchestratorError, QueryReport, StandingConfig, TickReport,
};
use crate::results::ResultSet;

/// Configuration of a [`Cluster`].
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Fat-tree arity; the fabric has `k` pods and `k³/4` hosts.
    pub k: u32,
    /// Orchestrator shards. Pods are split into `shards` contiguous
    /// ranges, one per shard; must be between 1 and `k`.
    pub shards: usize,
    /// Per-shard monitor flush/heartbeat cadence.
    pub heartbeat_interval: SimDuration,
    /// Per-shard failure-detection and repair policy.
    pub policy: FailurePolicy,
    /// Capacity of the shared flight recorder.
    pub journal_capacity: usize,
    /// Optional replicated result store shared by every shard. The
    /// coordinator registers it into its own registry before any shard
    /// builds (first registration wins), so `store.*` metrics land in
    /// the merged view exactly once.
    pub store: Option<Arc<ShardedStore>>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            k: 8,
            shards: 2,
            heartbeat_interval: SimDuration::from_millis(10),
            policy: FailurePolicy::default(),
            journal_capacity: 1024,
            store: None,
        }
    }
}

/// What [`Cluster::fail_pod`] / [`Cluster::repair_pod`] touched.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PodKillReport {
    /// The pod that was failed or repaired.
    pub pod: u32,
    /// The orchestrator shard owning that pod.
    pub shard: usize,
    /// Hosts whose state changed.
    pub hosts: usize,
    /// Host-uplink links whose state changed.
    pub links: usize,
    /// Store replicas (colocated by `store shard % pods == pod`) whose
    /// state changed.
    pub store_replicas: usize,
}

/// One row of [`Cluster::shard_summaries`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSummary {
    /// Shard index (also the high 32 bits of its cookies).
    pub index: usize,
    /// Inclusive pod range the shard owns.
    pub pods: (u32, u32),
    /// Queries currently running on the shard.
    pub running: usize,
    /// The shard's virtual clock.
    pub now: SimTime,
}

/// The scale-out control plane: N single-threaded [`Orchestrator`]
/// shards, each owning a contiguous pod range of one emulated fat-tree
/// topology, behind one thin coordinator.
///
/// Every shard runs on its own thread (orchestrators are `!Send`) over
/// its own engine instance; the pod-range gate means shard *i* only
/// ever places, heals and fails hosts inside its pods, so the shards'
/// views never conflict. Shards share one [`QueryDirectory`], one
/// [`Journal`] and (optionally) one replicated [`ShardedStore`], so
/// listing, flight-recorder and durable-result views are already
/// merged; metrics merge on demand via
/// [`Cluster::telemetry_report`], which labels each shard's series
/// with `shard=<i>`.
///
/// Cookies encode their shard in the high 32 bits, so any
/// cookie-addressed call routes without a lookup.
///
/// # Examples
///
/// ```
/// use netalytics::cluster::{Cluster, ClusterConfig};
///
/// let cluster = Cluster::new(ClusterConfig { k: 4, shards: 2, ..ClusterConfig::default() });
/// cluster.name_host("web", 1);
/// assert_eq!(cluster.num_shards(), 2);
/// ```
pub struct Cluster {
    shards: Vec<ClusterShard>,
    tree: FatTree,
    pod_bounds: Vec<(u32, u32)>,
    heartbeat_interval: SimDuration,
    policy: FailurePolicy,
    directory: Arc<QueryDirectory>,
    journal: Arc<Journal>,
    metrics: Arc<MetricsRegistry>,
    tracer: Arc<Tracer>,
    store: Option<Arc<ShardedStore>>,
    /// Registered hostname → owning shard; submissions naming a host
    /// route to the shard that can actually monitor it.
    names: Mutex<BTreeMap<String, usize>>,
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("shards", &self.shards.len())
            .field("pods", &self.tree.num_pods())
            .field("hosts", &self.tree.num_hosts())
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Builds the cluster: splits the `k` pods into `config.shards`
    /// contiguous ranges and spawns one orchestrator shard per range.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is zero or exceeds the pod count.
    pub fn new(config: ClusterConfig) -> Cluster {
        assert!(config.shards >= 1, "need at least one shard");
        assert!(
            config.shards <= config.k as usize,
            "at most one shard per pod ({} shards > {} pods)",
            config.shards,
            config.k
        );
        let tree = FatTree::new(config.k);
        let n = config.shards as u32;
        let pod_bounds: Vec<(u32, u32)> = (0..n)
            .map(|i| (i * config.k / n, (i + 1) * config.k / n - 1))
            .collect();
        let metrics = Arc::new(MetricsRegistry::new());
        let journal = Arc::new(Journal::new(config.journal_capacity));
        let directory = Arc::new(QueryDirectory::new());
        if let Some(store) = &config.store {
            // First registration wins inside the sharded store, so do
            // it before any shard's build() can.
            store.register_metrics(&metrics);
            store.attach_journal(Arc::clone(&journal));
        }
        let tracer = Arc::new(Tracer::with_registry(
            TraceConfig::default(),
            Arc::clone(&metrics),
        ));
        let shards = (0..config.shards)
            .map(|i| {
                let (lo, hi) = pod_bounds[i];
                let mut builder = Orchestrator::builder(config.k)
                    .pod_range(lo, hi)
                    .cookie_base((i as u64) << 32)
                    .heartbeat_interval(config.heartbeat_interval)
                    .failure_policy(config.policy)
                    .directory(Arc::clone(&directory))
                    .journal(Arc::clone(&journal));
                if let Some(store) = &config.store {
                    builder = builder.result_backend(Arc::clone(store) as Arc<dyn ResultBackend>);
                }
                ClusterShard::spawn(i, builder)
            })
            .collect();
        Cluster {
            shards,
            tree,
            pod_bounds,
            heartbeat_interval: config.heartbeat_interval,
            policy: config.policy,
            directory,
            journal,
            metrics,
            tracer,
            store: config.store,
            names: Mutex::new(BTreeMap::new()),
        }
    }

    /// Number of orchestrator shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard encoded in a cookie's high 32 bits (may be out of
    /// range for cookies this cluster never issued).
    pub fn shard_of_cookie(cookie: u64) -> usize {
        (cookie >> 32) as usize
    }

    /// The shard owning `pod`.
    ///
    /// # Panics
    ///
    /// Panics if `pod` is outside the topology.
    pub fn shard_of_pod(&self, pod: u32) -> usize {
        assert!(pod < self.tree.num_pods(), "pod {pod} out of range");
        self.pod_bounds
            .iter()
            .position(|&(lo, hi)| (lo..=hi).contains(&pod))
            .expect("pod ranges cover the tree")
    }

    /// The shard owning `host`'s pod.
    pub fn shard_of_host(&self, host: HostIdx) -> usize {
        self.shard_of_pod(self.tree.pod_of_edge(self.tree.edge_of_host(host)))
    }

    /// Inclusive pod range per shard.
    pub fn pod_bounds(&self) -> &[(u32, u32)] {
        &self.pod_bounds
    }

    /// The address of `host` — every shard emulates the same fat-tree,
    /// so the owning shard's answer is the cluster-wide one. Workload
    /// builders use this to aim client conversations.
    pub fn host_ip(&self, host: HostIdx) -> Ipv4Addr {
        self.shards[self.shard_of_host(host)].with(move |o| o.host_ip(host))
    }

    /// The shared query directory (all shards publish into it).
    pub fn directory(&self) -> &Arc<QueryDirectory> {
        &self.directory
    }

    /// The shared flight recorder.
    pub fn journal(&self) -> &Arc<Journal> {
        &self.journal
    }

    /// The coordinator's own registry: store replication metrics plus
    /// frontend counters. Per-shard series merge in via
    /// [`Cluster::telemetry_report`].
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The shared replicated store, when configured.
    pub fn store(&self) -> Option<&Arc<ShardedStore>> {
        self.store.as_ref()
    }

    /// The heartbeat interval every shard reconciles on.
    pub fn heartbeat_interval(&self) -> SimDuration {
        self.heartbeat_interval
    }

    /// The failure policy every shard runs.
    pub fn failure_policy(&self) -> FailurePolicy {
        self.policy
    }

    /// Introspection bundle over the *merged* planes: coordinator
    /// registry, shared journal and shared directory.
    pub fn introspection(&self) -> Introspection {
        Introspection {
            registry: Arc::clone(&self.metrics),
            tracer: Arc::clone(&self.tracer),
            journal: Arc::clone(&self.journal),
            queries: Arc::clone(&self.directory),
        }
    }

    /// Sends `f` to every shard, then collects — one slowest-shard
    /// latency per pass, not the sum.
    fn fanout<R: Send + 'static>(
        &self,
        f: impl Fn(&mut Orchestrator) -> R + Send + Clone + 'static,
    ) -> Vec<R> {
        let rxs: Vec<_> = self
            .shards
            .iter()
            .map(|sh| {
                let f = f.clone();
                sh.call(f)
            })
            .collect();
        rxs.into_iter()
            .map(|rx| rx.recv().expect("shard thread alive"))
            .collect()
    }

    /// Names a host on its owning shard (placement is shard-local, so
    /// no other shard could ever deploy there) and remembers the
    /// name→shard mapping for submission routing.
    pub fn name_host(&self, name: impl Into<String>, host: HostIdx) {
        let name = name.into();
        let shard = self.shard_of_host(host);
        self.names.lock().insert(name.clone(), shard);
        self.shards[shard].with(move |o| o.name_host(name, host));
    }

    /// Deploys a workload app on `host`'s owning shard. The app is
    /// constructed *on* the shard thread — `Box<dyn App>` need not be
    /// `Send`, only the constructor.
    pub fn deploy_app_on(
        &self,
        host: HostIdx,
        make_app: impl FnOnce() -> Box<dyn App> + Send + 'static,
    ) {
        let shard = self.shard_of_host(host);
        self.shards[shard].with(move |o| o.deploy_app(host, make_app()));
    }

    /// Registers `tenant` with every shard's admission controller, so
    /// routing never changes a tenant's quota outcome.
    pub fn register_tenant(&self, tenant: Tenant) {
        self.fanout(move |o| o.register_tenant(tenant.clone()));
    }

    /// Picks the shard for a submission: the shard owning the longest
    /// registered hostname mentioned in the query text, else the shard
    /// running the fewest queries (ties to the lowest index).
    fn route_shard(&self, query: &str) -> usize {
        {
            let names = self.names.lock();
            let mut best: Option<(usize, usize)> = None; // (name length, shard)
            for (name, &shard) in names.iter() {
                if query.contains(name.as_str()) && best.is_none_or(|(l, _)| name.len() > l) {
                    best = Some((name.len(), shard));
                }
            }
            if let Some((_, shard)) = best {
                return shard;
            }
        }
        self.fanout(|o| o.num_running())
            .into_iter()
            .enumerate()
            .min_by_key(|&(i, load)| (load, i))
            .map(|(i, _)| i)
            .expect("at least one shard")
    }

    /// Submits a query as the `"default"` tenant.
    ///
    /// # Errors
    ///
    /// Everything [`Orchestrator::submit_as`] can fail with.
    pub fn submit(&self, query: &str) -> Result<u64, OrchestratorError> {
        self.submit_as(crate::admission::DEFAULT_TENANT, query)
    }

    /// Submits a query on the routed shard; the returned cookie encodes
    /// that shard in its high 32 bits.
    ///
    /// # Errors
    ///
    /// Everything [`Orchestrator::submit_as`] can fail with.
    pub fn submit_as(&self, tenant: &str, query: &str) -> Result<u64, OrchestratorError> {
        Ok(self.submit_routed(tenant, query, None)?.0)
    }

    /// Standing-query counterpart of [`Cluster::submit_as`].
    ///
    /// # Errors
    ///
    /// Everything [`Orchestrator::submit_standing_as`] can fail with.
    pub fn submit_standing_as(
        &self,
        tenant: &str,
        query: &str,
        cfg: StandingConfig,
    ) -> Result<u64, OrchestratorError> {
        Ok(self.submit_routed(tenant, query, Some(cfg))?.0)
    }

    /// Routes, then submits on the owning shard's thread.
    pub(crate) fn submit_routed(
        &self,
        tenant: &str,
        query: &str,
        standing: Option<StandingConfig>,
    ) -> Result<(u64, Arc<SubscriptionHub>), OrchestratorError> {
        let shard = self.route_shard(query);
        let (tenant, query) = (tenant.to_string(), query.to_string());
        self.shards[shard].with(move |o| o.submit_with(&tenant, &query, standing))
    }

    /// The live-subscription hub of a running query.
    pub fn hub_of(&self, cookie: u64) -> Option<Arc<SubscriptionHub>> {
        let sh = self.shards.get(Self::shard_of_cookie(cookie))?;
        sh.with(move |o| {
            o.handle_for(cookie)
                .map(|h| Arc::clone(h.subscription_hub()))
        })
    }

    /// The in-memory result history of a running query.
    pub fn query_history(&self, cookie: u64) -> Option<ResultSet> {
        let sh = self.shards.get(Self::shard_of_cookie(cookie))?;
        sh.with(move |o| o.handle_for(cookie).and_then(|h| h.history()))
    }

    /// Kills a query on its owning shard. `None` for unknown cookies.
    pub fn kill(&self, cookie: u64) -> Option<QueryReport> {
        let sh = self.shards.get(Self::shard_of_cookie(cookie))?;
        sh.with(move |o| o.kill_by_cookie(cookie))
    }

    /// Kills every running query; returns how many were torn down.
    pub fn kill_all(&self) -> usize {
        self.fanout(Orchestrator::kill_all).into_iter().sum()
    }

    /// The cluster's virtual clock: the furthest shard's now. Shards
    /// advance in lockstep ([`Cluster::run_until`] gives every shard
    /// the same target, [`Cluster::tick`] the same step), so in steady
    /// state all shards agree.
    pub fn now(&self) -> SimTime {
        self.fanout(|o| o.now())
            .into_iter()
            .max()
            .expect("at least one shard")
    }

    /// Advances every shard's emulation to `deadline`, in parallel.
    pub fn run_until(&self, deadline: SimTime) {
        self.fanout(move |o| o.run_until(deadline));
    }

    /// One cluster tick: [`Orchestrator::tick`] on every shard in
    /// parallel, reports summed. Every shard advances by the same
    /// `step`, so the shard clocks stay in lockstep.
    pub fn tick(&self, step: SimDuration, grace: SimDuration) -> TickReport {
        let mut total = TickReport::default();
        for report in self.fanout(move |o| o.tick(step, grace)) {
            total.absorb(report);
        }
        total
    }

    /// Kills a whole pod: every host behind the pod's edge switches
    /// goes down along with its uplink, on the owning shard's engine,
    /// and the primary replica of every store shard colocated with the
    /// pod (`store shard % pods == pod`) fails with it.
    pub fn fail_pod(&self, pod: u32) -> PodKillReport {
        let shard = self.shard_of_pod(pod);
        let tree = self.tree;
        let (hosts, links) = self.shards[shard].with(move |o| {
            let engine = o.engine_mut();
            let (mut hosts, mut links) = (0, 0);
            for edge in tree.edges_of_pod(pod) {
                for host in tree.hosts_of_edge(edge) {
                    if engine.host_is_up(host) {
                        engine.fail_host(host);
                        hosts += 1;
                    }
                    if let Some(link) = engine.network().host_uplink(host) {
                        engine.fail_link(link);
                        links += 1;
                    }
                }
            }
            (hosts, links)
        });
        let store_replicas = self.for_colocated_replicas(pod, |store, s| {
            if store.replica_is_up(s, 0) {
                store.fail_replica(s, 0);
                true
            } else {
                false
            }
        });
        PodKillReport {
            pod,
            shard,
            hosts,
            links,
            store_replicas,
        }
    }

    /// Undoes [`Cluster::fail_pod`]: hosts and uplinks come back, and
    /// colocated store replicas are restored — but stay *stale*
    /// (excluded from leader reads) until
    /// [`ShardedStore::clear_stale`], because a returned replica
    /// missed every write during the outage.
    pub fn repair_pod(&self, pod: u32) -> PodKillReport {
        let shard = self.shard_of_pod(pod);
        let tree = self.tree;
        let (hosts, links) = self.shards[shard].with(move |o| {
            let engine = o.engine_mut();
            let (mut hosts, mut links) = (0, 0);
            for edge in tree.edges_of_pod(pod) {
                for host in tree.hosts_of_edge(edge) {
                    if let Some(link) = engine.network().host_uplink(host) {
                        engine.repair_link(link);
                        links += 1;
                    }
                    if !engine.host_is_up(host) {
                        engine.repair_host(host);
                        hosts += 1;
                    }
                }
            }
            (hosts, links)
        });
        let store_replicas = self.for_colocated_replicas(pod, |store, s| {
            if store.replica_is_up(s, 0) {
                false
            } else {
                store.restore_replica(s, 0);
                true
            }
        });
        PodKillReport {
            pod,
            shard,
            hosts,
            links,
            store_replicas,
        }
    }

    /// Applies `f` to the primary replica of every store shard
    /// colocated with `pod`; returns how many times `f` reported a
    /// state change.
    fn for_colocated_replicas(&self, pod: u32, f: impl Fn(&ShardedStore, usize) -> bool) -> usize {
        let Some(store) = &self.store else {
            return 0;
        };
        let npods = self.tree.num_pods() as usize;
        (0..store.num_shards())
            .filter(|&s| s % npods == pod as usize && f(store, s))
            .count()
    }

    /// Per-shard load and clock, for operators and the
    /// `/cluster/shards` route.
    pub fn shard_summaries(&self) -> Vec<ShardSummary> {
        self.fanout(|o| (o.num_running(), o.now()))
            .into_iter()
            .enumerate()
            .map(|(index, (running, now))| ShardSummary {
                index,
                pods: self.pod_bounds[index],
                running,
                now,
            })
            .collect()
    }

    /// The merged telemetry snapshot: the coordinator's own series
    /// (store replication, frontend counters) plus every shard's
    /// report, each shard's series labelled `shard=<i>`.
    pub fn telemetry_report(&self) -> RegistrySnapshot {
        let mut metrics = self.metrics.snapshot().metrics;
        for (i, snap) in self
            .fanout(|o| o.telemetry_report())
            .into_iter()
            .enumerate()
        {
            for mut m in snap.metrics {
                m.labels.push(("shard".to_string(), i.to_string()));
                metrics.push(m);
            }
        }
        RegistrySnapshot { metrics }
    }

    /// The `/cluster/shards` body.
    pub(crate) fn shards_json(&self) -> String {
        let mut s = String::from("{\"shards\":[");
        for (i, sh) in self.shard_summaries().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"index\":{},\"pods\":[{},{}],\"running\":{},\"now_ns\":{}}}",
                sh.index,
                sh.pods.0,
                sh.pods.1,
                sh.running,
                sh.now.as_nanos()
            ));
        }
        s.push_str("]}");
        s
    }
}
