//! The discrete-event engine: delivers packets through the emulated
//! network, drives host applications, and executes SDN actions
//! (including the mirror action NetAlytics relies on) at each switch.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::Ipv4Addr;

use netalytics_packet::Packet;
use netalytics_sdn::{Action, FlowRule, FlowTable, SdnController, SwitchId};

use crate::fattree::HostIdx;
use crate::network::{LinkId, Network, NodeId, NodeKind, PortId};
use crate::time::{SimDuration, SimTime};

/// A side effect requested by an application during a callback.
#[derive(Debug)]
enum Effect {
    Send(Packet),
    Timer(SimDuration, u64),
}

/// UDP port carrying encapsulated mirror copies (VXLAN's port number).
///
/// A mirrored packet cannot travel with its original addressing — every
/// switch on the way would route it back toward the original
/// destination. Like ERSPAN/VXLAN-based telemetry, the mirroring switch
/// wraps the original frame in a UDP datagram addressed to the monitor;
/// [`decapsulate_mirror`] recovers the inner frame.
pub const MIRROR_ENCAP_PORT: u16 = 4789;

/// Wraps `original` in a mirror-encapsulation datagram bound for
/// `monitor_ip`, preserving the capture timestamp.
pub fn encapsulate_mirror(original: &Packet, monitor_ip: std::net::Ipv4Addr) -> Packet {
    Packet::udp(
        monitor_ip,
        MIRROR_ENCAP_PORT,
        monitor_ip,
        MIRROR_ENCAP_PORT,
        &original.data,
    )
    .at_time(original.ts_ns)
}

/// Recovers the inner frame from a mirror-encapsulation datagram, or
/// `None` if `packet` is not one.
pub fn decapsulate_mirror(packet: &Packet) -> Option<Packet> {
    let view = packet.view().ok()?;
    let udp = view.udp?;
    if udp.dst_port != MIRROR_ENCAP_PORT {
        return None;
    }
    Some(Packet::from_bytes(
        bytes::Bytes::copy_from_slice(view.payload),
        packet.ts_ns,
    ))
}

/// Callback context handed to [`App`] methods.
///
/// Lets the application read the virtual clock, learn its own identity,
/// transmit packets and arm timers.
#[derive(Debug)]
pub struct Ctx<'a> {
    now: SimTime,
    host: HostIdx,
    ip: Ipv4Addr,
    effects: &'a mut Vec<Effect>,
}

impl Ctx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The host this application runs on.
    pub fn host(&self) -> HostIdx {
        self.host
    }

    /// The IPv4 address of this host.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    /// Transmits `packet` out this host's NIC.
    pub fn send(&mut self, packet: Packet) {
        self.effects.push(Effect::Send(packet));
    }

    /// Arms a timer that fires `delay` from now with `token`.
    pub fn timer_in(&mut self, delay: SimDuration, token: u64) {
        self.effects.push(Effect::Timer(delay, token));
    }
}

/// An application process running on an emulated host.
///
/// Servers, clients, NFV monitors, aggregators and processors are all
/// `App`s; the engine invokes these callbacks in virtual-time order.
pub trait App {
    /// Called once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Called for every packet arriving at this host's NIC (promiscuous:
    /// mirrored packets arrive here with their original addressing).
    fn on_packet(&mut self, packet: &Packet, ctx: &mut Ctx<'_>);

    /// Called when a timer armed via [`Ctx::timer_in`] fires.
    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}
}

/// One fault (or repair) the engine can apply to the substrate, either
/// immediately or at a scheduled virtual time.
///
/// NFV monitors and queue brokers are ordinary cloud instances; at scale
/// they fail, and the paper's placement algorithms exist precisely so
/// queries survive on a changing substrate. These events are the
/// substrate half of that story — the orchestrator's reconciler is the
/// control-plane half.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The host crashes: its app and pending timers are discarded, and
    /// every packet addressed (or mirrored) to it is lost.
    HostDown(HostIdx),
    /// The host comes back empty; an app installed while it was down
    /// receives its `on_start` now.
    HostUp(HostIdx),
    /// The link stops carrying packets in either direction.
    LinkDown(LinkId),
    /// The link carries traffic again.
    LinkUp(LinkId),
}

/// A deterministic, pre-scheduled sequence of fault events.
///
/// Scripts make chaos experiments reproducible: the same script over the
/// same workload yields the same packet-level outcome.
///
/// # Examples
///
/// ```
/// use netalytics_netsim::{Engine, FailureScript, LinkSpec, Network, SimTime};
///
/// let mut engine = Engine::new(Network::fat_tree(4, LinkSpec::default()));
/// let script = FailureScript::new()
///     .fail_host(SimTime::from_nanos(1_000_000), 3)
///     .repair_host(SimTime::from_nanos(5_000_000), 3);
/// engine.apply_script(&script);
/// engine.run_until(SimTime::from_nanos(2_000_000));
/// assert!(!engine.host_is_up(3));
/// engine.run_until(SimTime::from_nanos(6_000_000));
/// assert!(engine.host_is_up(3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FailureScript {
    events: Vec<(SimTime, FaultKind)>,
}

impl FailureScript {
    /// An empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a host crash at `at`.
    pub fn fail_host(mut self, at: SimTime, host: HostIdx) -> Self {
        self.events.push((at, FaultKind::HostDown(host)));
        self
    }

    /// Schedules a host repair at `at`.
    pub fn repair_host(mut self, at: SimTime, host: HostIdx) -> Self {
        self.events.push((at, FaultKind::HostUp(host)));
        self
    }

    /// Schedules a link failure at `at`.
    pub fn fail_link(mut self, at: SimTime, link: LinkId) -> Self {
        self.events.push((at, FaultKind::LinkDown(link)));
        self
    }

    /// Schedules a link repair at `at`.
    pub fn repair_link(mut self, at: SimTime, link: LinkId) -> Self {
        self.events.push((at, FaultKind::LinkUp(link)));
        self
    }

    /// The scheduled `(time, fault)` pairs, in insertion order.
    pub fn events(&self) -> &[(SimTime, FaultKind)] {
        &self.events
    }
}

#[derive(Debug)]
enum EventKind {
    Arrive { node: NodeId, packet: Packet },
    Timer { host: HostIdx, token: u64 },
    Fault(FaultKind),
}

#[derive(Debug)]
struct Queued {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Aggregate engine counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Packets delivered to host applications.
    pub delivered: u64,
    /// Packets dropped (no route, `Drop` action, or foreign destination).
    pub dropped: u64,
    /// Mirror copies created by SDN rules.
    pub mirrored: u64,
    /// Events processed.
    pub events: u64,
    /// Packet-in requests sent to the controller.
    pub packet_ins: u64,
    /// Fault events applied (host/link failures and repairs).
    pub faults: u64,
    /// Packets lost to failed hosts or links (subset of nothing else:
    /// counted separately from `dropped` so recovery loops can attribute
    /// loss to faults rather than policy).
    pub lost_to_failure: u64,
}

/// The discrete-event simulator.
///
/// # Examples
///
/// A one-shot echo between two hosts:
///
/// ```
/// use netalytics_netsim::{App, Ctx, Engine, LinkSpec, Network};
/// use netalytics_packet::{Packet, TcpFlags};
///
/// struct Echo;
/// impl App for Echo {
///     fn on_packet(&mut self, p: &Packet, ctx: &mut Ctx<'_>) {
///         let v = p.view().unwrap();
///         let (ip, tcp) = (v.ipv4.unwrap(), v.tcp.unwrap());
///         ctx.send(Packet::tcp(
///             ip.dst, tcp.dst_port, ip.src, tcp.src_port,
///             TcpFlags::ACK, 0, tcp.seq + 1, b"",
///         ));
///     }
/// }
///
/// struct Probe;
/// impl App for Probe {
///     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
///         let dst = "10.0.0.3".parse().unwrap(); // host 1 in a k=4 tree
///         ctx.send(Packet::tcp(ctx.ip(), 999, dst, 80, TcpFlags::SYN, 1, 0, b""));
///     }
///     fn on_packet(&mut self, _p: &Packet, _ctx: &mut Ctx<'_>) {}
/// }
///
/// let mut engine = Engine::new(Network::fat_tree(4, LinkSpec::default()));
/// engine.set_app(0, Box::new(Probe));
/// engine.set_app(1, Box::new(Echo));
/// engine.run_until_idle();
/// assert_eq!(engine.stats().delivered, 2);
/// ```
pub struct Engine {
    net: Network,
    apps: Vec<Option<Box<dyn App>>>,
    tables: Vec<FlowTable>,
    controller: Option<SdnController>,
    reactive: bool,
    queue: BinaryHeap<Reverse<Queued>>,
    now: SimTime,
    seq: u64,
    started: bool,
    stats: EngineStats,
    /// Fixed per-switch processing latency.
    switch_latency: SimDuration,
    /// Liveness of each host (index = `HostIdx`).
    host_up: Vec<bool>,
    /// Liveness of each link (index = `LinkId`).
    link_up: Vec<bool>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("hosts", &self.net.num_hosts())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Creates an engine over `net` with no applications installed.
    pub fn new(net: Network) -> Self {
        let hosts = net.num_hosts() as usize;
        let switches = net.num_switches() as usize;
        let links = net.num_links();
        Engine {
            net,
            apps: (0..hosts).map(|_| None).collect(),
            tables: (0..switches).map(|_| FlowTable::new()).collect(),
            controller: None,
            reactive: false,
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            started: false,
            stats: EngineStats::default(),
            switch_latency: SimDuration::from_micros(1),
            host_up: vec![true; hosts],
            link_up: vec![true; links],
        }
    }

    /// The underlying network (topology, link stats).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Mutable access to the network (e.g. to reset traffic counters).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Engine counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Installs (or replaces) the application on `host`.
    ///
    /// Apps deployed after the simulation has started (e.g. NFV monitors
    /// instantiated mid-run by a query) receive their
    /// [`App::on_start`] callback immediately.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn set_app(&mut self, host: HostIdx, app: Box<dyn App>) {
        self.apps[host as usize] = Some(app);
        if self.started {
            self.run_app(host, |app, ctx| app.on_start(ctx));
        }
    }

    /// Attaches an SDN controller; `reactive` enables the packet-in path
    /// for table misses.
    pub fn set_controller(&mut self, controller: SdnController, reactive: bool) {
        self.controller = Some(controller);
        self.reactive = reactive;
    }

    /// Access to the attached controller, if any.
    pub fn controller_mut(&mut self) -> Option<&mut SdnController> {
        self.controller.as_mut()
    }

    /// Installs a rule directly into a switch's flow table.
    ///
    /// Switch ids are global: edges first, then aggregations, then cores
    /// (matching [`Network`] node layout minus hosts).
    pub fn install_rule(&mut self, switch: SwitchId, rule: FlowRule) {
        self.tables[switch as usize].install(rule);
    }

    /// Removes all rules with `cookie` from every switch, returning the
    /// number removed.
    pub fn remove_rules_by_cookie(&mut self, cookie: u64) -> usize {
        self.tables
            .iter_mut()
            .map(|t| t.remove_by_cookie(cookie))
            .sum()
    }

    /// Drains proactive rule pushes from the attached controller into the
    /// switch tables.
    pub fn sync_controller(&mut self) {
        let Some(ctl) = self.controller.as_mut() else {
            return;
        };
        for sw in 0..self.tables.len() {
            for rule in ctl.pending_for(sw as SwitchId) {
                self.tables[sw].install(rule);
            }
        }
    }

    /// The global switch id of edge switch `e` (within-level index).
    pub fn edge_switch_id(&self, e: u32) -> SwitchId {
        e
    }

    /// The global switch id of aggregation switch `a`.
    pub fn agg_switch_id(&self, a: u32) -> SwitchId {
        self.net.tree().num_edges() + a
    }

    /// The global switch id of core switch `c`.
    pub fn core_switch_id(&self, c: u32) -> SwitchId {
        self.net.tree().num_edges() + self.net.tree().num_aggs() + c
    }

    fn switch_id_of_node(&self, node: NodeId) -> SwitchId {
        node.0 - self.net.num_hosts()
    }

    fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Queued { time, seq, kind }));
    }

    /// Schedules an externally built packet to leave `host` at `time`.
    pub fn inject_at(&mut self, host: HostIdx, packet: Packet, time: SimTime) {
        // Model as the host's NIC transmitting at `time`.
        let node = self.net.host_node(host);
        self.transmit(node, 0, packet, time);
    }

    /// Schedules a timer for `host` at absolute `time`.
    pub fn timer_at(&mut self, host: HostIdx, time: SimTime, token: u64) {
        self.push(time, EventKind::Timer { host, token });
    }

    /// True if host `h` is currently alive.
    pub fn host_is_up(&self, h: HostIdx) -> bool {
        self.host_up.get(h as usize).copied().unwrap_or(false)
    }

    /// True if link `l` is currently carrying traffic.
    pub fn link_is_up(&self, l: LinkId) -> bool {
        self.link_up.get(l.0 as usize).copied().unwrap_or(false)
    }

    /// Crashes host `h` immediately: its application and pending timers
    /// are discarded, mirror rules targeting it are invalidated in every
    /// switch table, and packets addressed to it (including copies
    /// already in flight) are lost on arrival. Returns the number of
    /// mirror rules invalidated. Idempotent.
    pub fn fail_host(&mut self, h: HostIdx) -> usize {
        if !self.host_is_up(h) {
            return 0;
        }
        self.host_up[h as usize] = false;
        self.stats.faults += 1;
        self.clear_app(h);
        // Invalidate data-plane rules that mirror toward the dead host;
        // the controller's desired state is the reconciler's business.
        self.tables.iter_mut().map(|t| t.remove_mirrors_to(h)).sum()
    }

    /// Undeploys whatever runs on host `h` without failing the host: the
    /// application is dropped and its pending timers are purged, so a
    /// later tenant of the host cannot receive the old app's tokens (and
    /// a self-re-arming tick chain ends here). Switch tables are left
    /// alone.
    pub fn clear_app(&mut self, h: HostIdx) {
        self.apps[h as usize] = None;
        let drained = std::mem::take(&mut self.queue);
        self.queue = drained
            .into_iter()
            .filter(|Reverse(q)| !matches!(q.kind, EventKind::Timer { host, .. } if host == h))
            .collect();
    }

    /// Removes every switch-table rule mirroring toward `host` (without
    /// failing the host), returning how many rules were removed. The
    /// reconciler uses this to retire a monitor that is being replaced
    /// while its host is still up.
    pub fn remove_mirrors_to(&mut self, host: HostIdx) -> usize {
        self.tables
            .iter_mut()
            .map(|t| t.remove_mirrors_to(host))
            .sum()
    }

    /// Repairs host `h`: it comes back empty. If an application was
    /// installed while the host was down, it receives `on_start` now.
    /// Idempotent.
    pub fn repair_host(&mut self, h: HostIdx) {
        if self.host_is_up(h) {
            return;
        }
        self.host_up[h as usize] = true;
        self.stats.faults += 1;
        if self.started && self.apps[h as usize].is_some() {
            self.run_app(h, |app, ctx| app.on_start(ctx));
        }
    }

    /// Fails link `l`: packets offered to it in either direction are
    /// lost. Idempotent.
    pub fn fail_link(&mut self, l: LinkId) {
        if let Some(up) = self.link_up.get_mut(l.0 as usize) {
            if *up {
                *up = false;
                self.stats.faults += 1;
            }
        }
    }

    /// Repairs link `l`. Idempotent.
    pub fn repair_link(&mut self, l: LinkId) {
        if let Some(up) = self.link_up.get_mut(l.0 as usize) {
            if !*up {
                *up = true;
                self.stats.faults += 1;
            }
        }
    }

    /// Applies `fault` immediately.
    pub fn apply_fault(&mut self, fault: FaultKind) {
        match fault {
            FaultKind::HostDown(h) => {
                self.fail_host(h);
            }
            FaultKind::HostUp(h) => self.repair_host(h),
            FaultKind::LinkDown(l) => self.fail_link(l),
            FaultKind::LinkUp(l) => self.repair_link(l),
        }
    }

    /// Schedules `fault` to strike at virtual time `at`.
    pub fn schedule_fault(&mut self, at: SimTime, fault: FaultKind) {
        self.push(at, EventKind::Fault(fault));
    }

    /// Schedules every event of `script` (deterministic chaos).
    pub fn apply_script(&mut self, script: &FailureScript) {
        for &(at, fault) in script.events() {
            self.schedule_fault(at, fault);
        }
    }

    /// Transmits `packet` from `node` out `port` no earlier than `when`.
    fn transmit(&mut self, node: NodeId, port: PortId, packet: Packet, when: SimTime) {
        let link_id = self.net.link_at(node, port);
        if !self.link_is_up(link_id) {
            self.stats.lost_to_failure += 1;
            return;
        }
        let peer = self.net.peer(node, port);
        let link = &mut self.net.links[link_id.0 as usize];
        let dir = usize::from(link.ends[0].0 != node);
        let start = when.max(link.next_free[dir]);
        let bits = packet.len() as u64 * 8;
        // Serialization delay, rounded up to a nanosecond.
        let ser_ns = (bits * 1_000_000_000).div_ceil(link.spec.bandwidth_bps);
        let ser = SimDuration::from_nanos(ser_ns);
        link.next_free[dir] = start + ser;
        link.bytes[dir] += packet.len() as u64;
        link.packets[dir] += 1;
        let arrive = start + ser + link.spec.latency;
        self.push(arrive, EventKind::Arrive { node: peer, packet });
    }

    fn forward_native(&mut self, node: NodeId, packet: Packet, when: SimTime) {
        let Some(dst_ip) = packet.view().ok().and_then(|v| v.ipv4).map(|ip| ip.dst) else {
            self.stats.dropped += 1;
            return;
        };
        let Some(dst_host) = self.net.host_of_ip(dst_ip) else {
            self.stats.dropped += 1;
            return;
        };
        self.forward_toward(node, dst_host, packet, when);
    }

    fn forward_toward(&mut self, node: NodeId, dst_host: HostIdx, packet: Packet, when: SimTime) {
        let hash = packet.flow_key().map(|f| f.stable_hash()).unwrap_or(0);
        match self.net.next_hop(node, dst_host, hash) {
            Some(port) => self.transmit(node, port, packet, when),
            None => self.stats.dropped += 1,
        }
    }

    fn handle_switch(&mut self, node: NodeId, packet: Packet) {
        let when = self.now + self.switch_latency;
        let flow = packet.flow_key();
        let sw = self.switch_id_of_node(node);
        // Union of all matching rules (group-table semantics), so several
        // concurrent queries can each mirror the same flow.
        let mut actions: Vec<Action> = flow
            .as_ref()
            .map(|f| self.tables[sw as usize].lookup_all(f, packet.len()))
            .unwrap_or_default();
        // Reactive packet-in on a miss.
        if actions.is_empty() && self.reactive {
            if let (Some(ctl), Some(f)) = (self.controller.as_mut(), flow.as_ref()) {
                let rules = ctl.packet_in(sw, f);
                self.stats.packet_ins += 1;
                if !rules.is_empty() {
                    for r in rules {
                        self.tables[sw as usize].install(r);
                    }
                    actions = self.tables[sw as usize].lookup_all(f, packet.len());
                }
            }
        }
        if actions.is_empty() {
            actions.push(Action::Native);
        }
        // A Drop verdict from any matching rule vetoes everything else.
        if actions.contains(&Action::Drop) {
            self.stats.dropped += 1;
            return;
        }
        for action in actions {
            match action {
                Action::Native => self.forward_native(node, packet.clone(), when),
                Action::Output(port) => {
                    if (port as usize) < self.net.port_count(node) {
                        self.transmit(node, port, packet.clone(), when);
                    } else {
                        self.stats.dropped += 1;
                    }
                }
                Action::MirrorToHost(h) => {
                    if h < self.net.num_hosts() && !self.host_is_up(h) {
                        // Stale rule racing its invalidation: the copy
                        // would die at the dead monitor anyway.
                        self.stats.lost_to_failure += 1;
                    } else if h < self.net.num_hosts() {
                        self.stats.mirrored += 1;
                        // Encapsulate so intermediate switches route the
                        // copy to the monitor, not the original target.
                        let encap = encapsulate_mirror(&packet, self.net.host_ip(h));
                        self.forward_toward(node, h, encap, when);
                    } else {
                        self.stats.dropped += 1;
                    }
                }
                Action::Controller => {
                    self.stats.packet_ins += 1;
                    if let (Some(ctl), Some(f)) = (self.controller.as_mut(), flow.as_ref()) {
                        let _ = ctl.packet_in(sw, f);
                    }
                }
                Action::Drop => self.stats.dropped += 1,
            }
        }
    }

    fn run_app<F>(&mut self, host: HostIdx, f: F)
    where
        F: FnOnce(&mut dyn App, &mut Ctx<'_>),
    {
        if !self.host_is_up(host) {
            return;
        }
        let Some(mut app) = self.apps[host as usize].take() else {
            return;
        };
        let mut effects = Vec::new();
        let mut ctx = Ctx {
            now: self.now,
            host,
            ip: self.net.host_ip(host),
            effects: &mut effects,
        };
        f(app.as_mut(), &mut ctx);
        self.apps[host as usize] = Some(app);
        for e in effects {
            match e {
                Effect::Send(p) => {
                    let node = self.net.host_node(host);
                    self.transmit(node, 0, p, self.now);
                }
                Effect::Timer(d, token) => {
                    self.push(self.now + d, EventKind::Timer { host, token });
                }
            }
        }
    }

    fn start_apps(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for host in 0..self.apps.len() as u32 {
            if self.apps[host as usize].is_some() {
                self.run_app(host, |app, ctx| app.on_start(ctx));
            }
        }
    }

    fn step(&mut self, deadline: Option<SimTime>) -> bool {
        let Some(Reverse(next)) = self.queue.peek() else {
            return false;
        };
        if let Some(d) = deadline {
            if next.time > d {
                return false;
            }
        }
        let Reverse(ev) = self.queue.pop().expect("peeked");
        self.now = self.now.max(ev.time);
        self.stats.events += 1;
        match ev.kind {
            EventKind::Arrive { node, packet } => match self.net.kind(node) {
                NodeKind::Host(h) => {
                    if !self.host_is_up(h) {
                        // In-flight packet reaching a dead NIC.
                        self.stats.lost_to_failure += 1;
                    } else {
                        self.stats.delivered += 1;
                        let stamped = packet.at_time(self.now.as_nanos());
                        self.run_app(h, |app, ctx| app.on_packet(&stamped, ctx));
                    }
                }
                NodeKind::Switch(..) => self.handle_switch(node, packet),
            },
            EventKind::Timer { host, token } => {
                self.run_app(host, |app, ctx| app.on_timer(token, ctx));
            }
            EventKind::Fault(fault) => self.apply_fault(fault),
        }
        true
    }

    /// Runs until the event queue drains.
    pub fn run_until_idle(&mut self) {
        self.start_apps();
        while self.step(None) {}
    }

    /// Runs until the clock would pass `deadline`; events at or before the
    /// deadline are processed.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.start_apps();
        while self.step(Some(deadline)) {}
        self.now = self.now.max(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::LinkSpec;
    use netalytics_packet::TcpFlags;
    use netalytics_sdn::{FlowMatch, FlowRule};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Records every packet it sees.
    struct Sink(Rc<RefCell<Vec<Packet>>>);
    impl App for Sink {
        fn on_packet(&mut self, p: &Packet, _ctx: &mut Ctx<'_>) {
            self.0.borrow_mut().push(p.clone());
        }
    }

    struct SendOnce {
        dst: Ipv4Addr,
        count: usize,
    }
    impl App for SendOnce {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for i in 0..self.count {
                ctx.send(Packet::tcp(
                    ctx.ip(),
                    4000 + i as u16,
                    self.dst,
                    80,
                    TcpFlags::SYN,
                    0,
                    0,
                    b"hello",
                ));
            }
        }
        fn on_packet(&mut self, _p: &Packet, _ctx: &mut Ctx<'_>) {}
    }

    fn net4() -> Network {
        Network::fat_tree(4, LinkSpec::default())
    }

    #[test]
    fn cross_pod_delivery_and_timing() {
        let mut e = Engine::new(net4());
        let got = Rc::new(RefCell::new(Vec::new()));
        let dst_ip = e.network().host_ip(15);
        e.set_app(
            0,
            Box::new(SendOnce {
                dst: dst_ip,
                count: 1,
            }),
        );
        e.set_app(15, Box::new(Sink(got.clone())));
        e.run_until_idle();
        assert_eq!(got.borrow().len(), 1);
        assert_eq!(e.stats().delivered, 1);
        // 6 links * (ser + 5us) + 5 switch hops * 1us > 30us.
        let ts = got.borrow()[0].ts_ns;
        assert!(ts > 30_000, "arrival at {ts}ns too early");
    }

    #[test]
    fn mirror_rule_duplicates_to_monitor() {
        let mut e = Engine::new(net4());
        let got = Rc::new(RefCell::new(Vec::new()));
        let mon = Rc::new(RefCell::new(Vec::new()));
        let dst_ip = e.network().host_ip(1);
        // Mirror at host 0/1's ToR (edge 0) toward monitor host 2.
        e.install_rule(
            e.edge_switch_id(0),
            FlowRule::mirror(FlowMatch::any().to_host(dst_ip, Some(80)), 2, 1),
        );
        e.set_app(
            0,
            Box::new(SendOnce {
                dst: dst_ip,
                count: 3,
            }),
        );
        e.set_app(1, Box::new(Sink(got.clone())));
        e.set_app(2, Box::new(Sink(mon.clone())));
        e.run_until_idle();
        assert_eq!(got.borrow().len(), 3, "original path unaffected");
        assert_eq!(mon.borrow().len(), 3, "monitor sees a copy of each");
        assert_eq!(e.stats().mirrored, 3);
        // The copies arrive encapsulated; the inner frame carries the
        // original addressing.
        let inner = decapsulate_mirror(&mon.borrow()[0]).expect("encapsulated");
        assert_eq!(inner.flow_key().unwrap().dst_ip, dst_ip);
    }

    #[test]
    fn drop_rule_discards() {
        let mut e = Engine::new(net4());
        let got = Rc::new(RefCell::new(Vec::new()));
        let dst_ip = e.network().host_ip(1);
        e.install_rule(
            e.edge_switch_id(0),
            FlowRule::new(FlowMatch::any(), vec![netalytics_sdn::Action::Drop]),
        );
        e.set_app(
            0,
            Box::new(SendOnce {
                dst: dst_ip,
                count: 2,
            }),
        );
        e.set_app(1, Box::new(Sink(got.clone())));
        e.run_until_idle();
        assert!(got.borrow().is_empty());
        assert_eq!(e.stats().dropped, 2);
    }

    #[test]
    fn reactive_controller_installs_on_miss() {
        let mut e = Engine::new(net4());
        let mon = Rc::new(RefCell::new(Vec::new()));
        let dst_ip = e.network().host_ip(1);
        let mut ctl = SdnController::new();
        ctl.install(
            0, // edge 0
            FlowRule::mirror(FlowMatch::any().to_host(dst_ip, Some(80)), 2, 9),
            netalytics_sdn::InstallMode::Reactive,
        );
        e.set_controller(ctl, true);
        e.set_app(
            0,
            Box::new(SendOnce {
                dst: dst_ip,
                count: 2,
            }),
        );
        e.set_app(1, Box::new(Sink(Rc::new(RefCell::new(Vec::new())))));
        e.set_app(2, Box::new(Sink(mon.clone())));
        e.run_until_idle();
        assert_eq!(mon.borrow().len(), 2, "both packets mirrored after pull");
        assert!(e.stats().packet_ins >= 1);
    }

    #[test]
    fn proactive_sync_installs_rules() {
        let mut e = Engine::new(net4());
        let dst_ip = e.network().host_ip(1);
        let mut ctl = SdnController::new();
        ctl.install(
            0,
            FlowRule::mirror(FlowMatch::any().to_host(dst_ip, None), 2, 5),
            netalytics_sdn::InstallMode::Proactive,
        );
        e.set_controller(ctl, false);
        e.sync_controller();
        let mon = Rc::new(RefCell::new(Vec::new()));
        e.set_app(
            0,
            Box::new(SendOnce {
                dst: dst_ip,
                count: 1,
            }),
        );
        e.set_app(1, Box::new(Sink(Rc::new(RefCell::new(Vec::new())))));
        e.set_app(2, Box::new(Sink(mon.clone())));
        e.run_until_idle();
        assert_eq!(mon.borrow().len(), 1);
        // Removing by cookie stops mirroring.
        assert_eq!(e.remove_rules_by_cookie(5), 1);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerApp(Rc<RefCell<Vec<u64>>>);
        impl App for TimerApp {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.timer_in(SimDuration::from_millis(2), 2);
                ctx.timer_in(SimDuration::from_millis(1), 1);
            }
            fn on_packet(&mut self, _p: &Packet, _c: &mut Ctx<'_>) {}
            fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
                self.0.borrow_mut().push(token);
                if token == 1 {
                    ctx.timer_in(SimDuration::from_micros(1), 3);
                }
            }
        }
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut e = Engine::new(net4());
        e.set_app(0, Box::new(TimerApp(order.clone())));
        e.run_until_idle();
        assert_eq!(*order.borrow(), vec![1, 3, 2]);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut e = Engine::new(net4());
        let got = Rc::new(RefCell::new(Vec::new()));
        let dst_ip = e.network().host_ip(15);
        e.set_app(
            0,
            Box::new(SendOnce {
                dst: dst_ip,
                count: 1,
            }),
        );
        e.set_app(15, Box::new(Sink(got.clone())));
        e.run_until(SimTime::from_nanos(10)); // far too early
        assert!(got.borrow().is_empty());
        e.run_until(SimTime::from_nanos(100_000_000));
        assert_eq!(got.borrow().len(), 1);
    }

    #[test]
    fn traffic_counters_accumulate_by_tier() {
        let mut e = Engine::new(net4());
        let dst_ip = e.network().host_ip(15); // cross-pod
        e.set_app(
            0,
            Box::new(SendOnce {
                dst: dst_ip,
                count: 1,
            }),
        );
        e.set_app(15, Box::new(Sink(Rc::new(RefCell::new(Vec::new())))));
        e.run_until_idle();
        let t = e.network().tier_traffic();
        let len = 54 + 5; // tcp frame with 5-byte payload
        assert_eq!(t.host_edge, 2 * len, "both host links");
        assert_eq!(t.edge_agg, 2 * len);
        assert_eq!(t.agg_core, 2 * len);
        assert_eq!(t.weighted(), (2 + 4 + 8) * len);
    }

    #[test]
    fn foreign_destination_dropped() {
        let mut e = Engine::new(net4());
        e.set_app(
            0,
            Box::new(SendOnce {
                dst: Ipv4Addr::new(192, 168, 1, 1),
                count: 1,
            }),
        );
        e.run_until_idle();
        assert_eq!(e.stats().dropped, 1);
        assert_eq!(e.stats().delivered, 0);
    }

    #[test]
    fn fault_dead_host_loses_packets() {
        let mut e = Engine::new(net4());
        let got = Rc::new(RefCell::new(Vec::new()));
        let dst_ip = e.network().host_ip(1);
        e.set_app(
            0,
            Box::new(SendOnce {
                dst: dst_ip,
                count: 3,
            }),
        );
        e.set_app(1, Box::new(Sink(got.clone())));
        e.fail_host(1);
        assert!(!e.host_is_up(1));
        e.run_until_idle();
        assert!(got.borrow().is_empty(), "dead host must not deliver");
        assert_eq!(e.stats().delivered, 0);
        assert_eq!(e.stats().lost_to_failure, 3);
        assert_eq!(e.stats().faults, 1);
    }

    #[test]
    fn fault_repair_restores_delivery_and_restarts_app() {
        let mut e = Engine::new(net4());
        let got = Rc::new(RefCell::new(Vec::new()));
        let dst_ip = e.network().host_ip(1);
        e.set_app(1, Box::new(Sink(got.clone())));
        e.fail_host(1);
        e.repair_host(1);
        assert!(e.host_is_up(1));
        e.set_app(1, Box::new(Sink(got.clone())));
        e.set_app(
            0,
            Box::new(SendOnce {
                dst: dst_ip,
                count: 2,
            }),
        );
        e.run_until_idle();
        assert_eq!(got.borrow().len(), 2);
        assert_eq!(e.stats().lost_to_failure, 0);
    }

    #[test]
    fn fault_dead_host_invalidates_mirror_rules() {
        let mut e = Engine::new(net4());
        let got = Rc::new(RefCell::new(Vec::new()));
        let dst_ip = e.network().host_ip(1);
        e.install_rule(
            e.edge_switch_id(0),
            FlowRule::mirror(FlowMatch::any().to_host(dst_ip, Some(80)), 2, 1),
        );
        // Killing monitor host 2 removes the mirror rule from the table.
        let removed = e.fail_host(2);
        assert_eq!(removed, 1);
        e.set_app(
            0,
            Box::new(SendOnce {
                dst: dst_ip,
                count: 2,
            }),
        );
        e.set_app(1, Box::new(Sink(got.clone())));
        e.run_until_idle();
        assert_eq!(got.borrow().len(), 2, "original path unaffected");
        assert_eq!(e.stats().mirrored, 0, "no copies to the dead monitor");
        assert_eq!(
            e.stats().lost_to_failure,
            0,
            "rule removed, not black-holed"
        );
    }

    #[test]
    fn fault_link_down_drops_in_flight() {
        let mut e = Engine::new(net4());
        let got = Rc::new(RefCell::new(Vec::new()));
        let dst_ip = e.network().host_ip(1);
        let uplink = e.network().host_uplink(0).expect("host 0 has an uplink");
        e.fail_link(uplink);
        assert!(!e.link_is_up(uplink));
        e.set_app(
            0,
            Box::new(SendOnce {
                dst: dst_ip,
                count: 2,
            }),
        );
        e.set_app(1, Box::new(Sink(got.clone())));
        e.run_until_idle();
        assert!(got.borrow().is_empty());
        assert_eq!(e.stats().lost_to_failure, 2);
        // Repair and resend: traffic flows again.
        e.repair_link(uplink);
        e.set_app(
            0,
            Box::new(SendOnce {
                dst: dst_ip,
                count: 1,
            }),
        );
        e.run_until_idle();
        assert_eq!(got.borrow().len(), 1);
    }

    #[test]
    fn fault_script_applies_at_virtual_times() {
        let mut e = Engine::new(net4());
        let got = Rc::new(RefCell::new(Vec::new()));
        let dst_ip = e.network().host_ip(1);
        let script = FailureScript::new()
            .fail_host(SimTime::from_nanos(1_000_000), 1)
            .repair_host(SimTime::from_nanos(2_000_000), 1);
        e.apply_script(&script);
        e.set_app(1, Box::new(Sink(got.clone())));
        e.set_app(
            0,
            Box::new(SendOnce {
                dst: dst_ip,
                count: 1,
            }),
        );
        // Before the failure fires, delivery works.
        e.run_until(SimTime::from_nanos(500_000));
        assert_eq!(got.borrow().len(), 1);
        // Past the failure point the host is down; past repair it is up
        // again (but appless — the script only restores the NIC).
        e.run_until(SimTime::from_nanos(1_500_000));
        assert!(!e.host_is_up(1));
        e.run_until(SimTime::from_nanos(2_500_000));
        assert!(e.host_is_up(1));
        assert_eq!(e.stats().faults, 2);
    }

    #[test]
    fn fault_dead_host_timers_purged() {
        struct Ticker(Rc<RefCell<u64>>);
        impl App for Ticker {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.timer_in(SimDuration::from_millis(1), 1);
            }
            fn on_packet(&mut self, _p: &Packet, _c: &mut Ctx<'_>) {}
            fn on_timer(&mut self, _t: u64, ctx: &mut Ctx<'_>) {
                *self.0.borrow_mut() += 1;
                ctx.timer_in(SimDuration::from_millis(1), 1);
            }
        }
        let ticks = Rc::new(RefCell::new(0u64));
        let mut e = Engine::new(net4());
        e.set_app(0, Box::new(Ticker(ticks.clone())));
        e.run_until(SimTime::from_nanos(3_500_000));
        assert_eq!(*ticks.borrow(), 3);
        e.fail_host(0);
        e.run_until(SimTime::from_nanos(10_000_000));
        assert_eq!(*ticks.borrow(), 3, "no ticks after host death");

        // Undeploying without a fault purges the chain too, and the next
        // tenant of the live host starts exactly one chain of its own.
        e.set_app(1, Box::new(Ticker(ticks.clone())));
        e.run_until(SimTime::from_nanos(12_500_000));
        assert_eq!(*ticks.borrow(), 5);
        e.clear_app(1);
        assert!(e.host_is_up(1));
        e.set_app(1, Box::new(Ticker(ticks.clone())));
        e.run_until(SimTime::from_nanos(14_600_000));
        assert_eq!(*ticks.borrow(), 7, "one chain, not the old one plus a new");
    }
}

#[cfg(test)]
mod timing_tests {
    use super::*;
    use crate::network::LinkSpec;
    use netalytics_packet::TcpFlags;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct BigBurst {
        dst: Ipv4Addr,
        frames: usize,
        frame_len: usize,
    }
    impl App for BigBurst {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for i in 0..self.frames {
                ctx.send(Packet::tcp_padded(
                    ctx.ip(),
                    4000 + i as u16,
                    self.dst,
                    80,
                    TcpFlags::ACK,
                    self.frame_len,
                ));
            }
        }
        fn on_packet(&mut self, _p: &Packet, _c: &mut Ctx<'_>) {}
    }

    struct Stamps(Rc<RefCell<Vec<u64>>>);
    impl App for Stamps {
        fn on_packet(&mut self, p: &Packet, _c: &mut Ctx<'_>) {
            self.0.borrow_mut().push(p.ts_ns);
        }
    }

    #[test]
    fn link_fifo_serialization_spaces_arrivals() {
        // 10 Gbps, 1250-byte frames: 1 µs serialization each. A burst of
        // 10 sent at t=0 must arrive spaced by >= the serialization time.
        let mut e = Engine::new(Network::fat_tree(4, LinkSpec::default()));
        let got = Rc::new(RefCell::new(Vec::new()));
        let dst = e.network().host_ip(1);
        e.set_app(
            0,
            Box::new(BigBurst {
                dst,
                frames: 10,
                frame_len: 1250,
            }),
        );
        e.set_app(1, Box::new(Stamps(got.clone())));
        e.run_until_idle();
        let ts = got.borrow();
        assert_eq!(ts.len(), 10);
        for w in ts.windows(2) {
            let gap = w[1] - w[0];
            assert!(gap >= 1_000, "arrivals must be serialized apart ({gap}ns)");
        }
        // Total span ~ 9 serialization slots.
        assert!(ts[9] - ts[0] >= 9_000);
    }

    #[test]
    fn slow_links_stretch_transfers() {
        let slow = LinkSpec {
            bandwidth_bps: 1_000_000_000, // 1 Gbps
            latency: SimDuration::from_micros(5),
        };
        let mut fast_e = Engine::new(Network::fat_tree(4, LinkSpec::default()));
        let mut slow_e = Engine::new(Network::fat_tree(4, slow));
        let measure = |e: &mut Engine| {
            let got = Rc::new(RefCell::new(Vec::new()));
            let dst = e.network().host_ip(1);
            e.set_app(
                0,
                Box::new(BigBurst {
                    dst,
                    frames: 5,
                    frame_len: 1250,
                }),
            );
            e.set_app(1, Box::new(Stamps(got.clone())));
            e.run_until_idle();
            let b = got.borrow();
            *b.last().unwrap()
        };
        let fast_done = measure(&mut fast_e);
        let slow_done = measure(&mut slow_e);
        assert!(
            slow_done > fast_done + 30_000,
            "1 Gbps ({slow_done}ns) must be far slower than 10 Gbps ({fast_done}ns)"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut e = Engine::new(Network::fat_tree(4, LinkSpec::default()));
            let got = Rc::new(RefCell::new(Vec::new()));
            let dst = e.network().host_ip(14);
            e.set_app(
                3,
                Box::new(BigBurst {
                    dst,
                    frames: 50,
                    frame_len: 700,
                }),
            );
            e.set_app(14, Box::new(Stamps(got.clone())));
            e.run_until_idle();
            let stats = e.stats();
            let ts = got.borrow().clone();
            (stats, ts, e.network().tier_traffic())
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }
}
