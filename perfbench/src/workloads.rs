//! The four workloads: what each deployment builds, and how each is
//! checked.
//!
//! All load comes from this process, in a closed loop, with no fault
//! injection. An *op* is one RSM update or read, or, in the one-shot
//! workloads, one process's propose→decide.

use crate::deploy::{self, visit, Deployment, Inspect};
use crate::measure::Rng;
use crate::probe::{Mark, Probe, Role};
use crate::rsmwire::RsmWire;
use bgla_core::harness::{assert_la_spec, WtsRunReport};
use bgla_core::sbs::{SbsMsg, SbsProcess};
use bgla_core::spec;
use bgla_core::wts::{WtsMsg, WtsProcess};
use bgla_core::{SystemConfig, ValueSet};
use bgla_net::NetConfig;
use bgla_rsm::{checks, ClientOp, Op, Replica, RsmMsg, WorkloadClient};
use bgla_simnet::{Process, Transport, WireMessage};
use std::collections::BTreeSet;

/// GWTS rounds run continuously; no deployment may exhaust them.
const MAX_ROUNDS: u64 = 1_000_000;

/// A deployment's wall-clock safety deadline on TCP.
const TCP_DEADLINE_MS: u64 = 120_000;

/// One workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// RSM, n=4, over TCP.
    TcpRsmN4,
    /// RSM, n=7, on the simulator.
    SimRsmN7,
    /// One-shot WTS, n=16, over TCP.
    TcpWtsN16,
    /// One-shot SbS, n=10, over TCP.
    TcpSbsN10,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "tcp-rsm-n4" => Workload::TcpRsmN4,
            "sim-rsm-n7" => Workload::SimRsmN7,
            "tcp-wts-n16" => Workload::TcpWtsN16,
            "tcp-sbs-n10" => Workload::TcpSbsN10,
            _ => return None,
        })
    }

    /// Whether the workload runs over real sockets.
    pub fn tcp(self) -> bool {
        self != Workload::SimRsmN7
    }

    /// `(n, f)` of the agreement system.
    pub fn nf(self) -> (usize, usize) {
        match self {
            Workload::TcpRsmN4 => (4, 1),
            Workload::SimRsmN7 => (7, 2),
            Workload::TcpWtsN16 => (16, 5),
            Workload::TcpSbsN10 => (10, 3),
        }
    }

    /// Where the workload's own deployments run.
    pub fn runtime(self, idle: bool) -> Runtime {
        if self.tcp() {
            Runtime::Tcp { idle }
        } else {
            Runtime::Sim
        }
    }

    /// Runs one deployment on `rt` with inputs drawn from `rng`.
    pub fn deploy(self, rng: &mut Rng, traced: bool, rt: Runtime) -> Deployment {
        let (n, f) = self.nf();
        let cfg = NetConfig {
            seed: rng.next(),
            deadline_ms: TCP_DEADLINE_MS,
            ..NetConfig::default()
        };
        let schedule = rng.next();
        match self {
            Workload::TcpRsmN4 | Workload::SimRsmN7 => {
                let ops = if self == Workload::TcpRsmN4 { 100 } else { 50 };
                let scripts = rsm_scripts(rng, ops);
                match rt {
                    Runtime::Tcp { idle } => deploy::tcp::<RsmMsg, RsmWire>(
                        cfg,
                        traced,
                        idle,
                        false,
                        || rsm_procs(n, f, scripts, traced),
                        |t| rsm_inspect(t, n),
                    ),
                    Runtime::Sim => deploy::sim::<RsmMsg>(
                        schedule,
                        traced,
                        || rsm_procs(n, f, scripts, traced),
                        |t| rsm_inspect(t, n),
                    ),
                }
            }
            Workload::TcpWtsN16 => {
                let inputs: Vec<u64> = (0..n).map(|_| rng.next() % 1_000_000).collect();
                let config = SystemConfig::new(n, f);
                let build = || {
                    (0..n)
                        .map(|i| one_shot(Box::new(WtsProcess::new(i, config, inputs[i])), traced))
                        .collect()
                };
                match rt {
                    Runtime::Tcp { idle } => deploy::tcp::<WtsMsg<u64>, WtsMsg<u64>>(
                        cfg,
                        traced,
                        idle,
                        true,
                        build,
                        |t| wts_inspect(t, f),
                    ),
                    Runtime::Sim => deploy::sim(schedule, traced, build, |t| wts_inspect(t, f)),
                }
            }
            Workload::TcpSbsN10 => {
                let inputs: Vec<u64> = (0..n).map(|_| rng.next() % 1_000_000).collect();
                let config = SystemConfig::new(n, f);
                let build = || {
                    (0..n)
                        .map(|i| one_shot(Box::new(SbsProcess::new(i, config, inputs[i])), traced))
                        .collect()
                };
                match rt {
                    Runtime::Tcp { idle } => deploy::tcp::<SbsMsg<u64>, SbsMsg<u64>>(
                        cfg,
                        traced,
                        idle,
                        true,
                        build,
                        |t| sbs_inspect(t, f),
                    ),
                    Runtime::Sim => deploy::sim(schedule, traced, build, |t| sbs_inspect(t, f)),
                }
            }
        }
    }
}

/// Where a deployment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// `TcpRuntime` over localhost; `idle` also measures an idle window.
    Tcp {
        /// Measure the CPU of an idle window afterwards.
        idle: bool,
    },
    /// The simulator under a seeded `RandomScheduler`.
    Sim,
}

/// The two clients' scripts: `ops` each, every 5th a read, updates
/// adding seeded amounts.
fn rsm_scripts(rng: &mut Rng, ops: usize) -> [Vec<ClientOp>; 2] {
    let mut script = || {
        (1..=ops)
            .map(|j| {
                if j % 5 == 0 {
                    ClientOp::Read
                } else {
                    ClientOp::Update(Op::Add(1 + rng.next() % 1000))
                }
            })
            .collect()
    };
    [script(), script()]
}

/// `n` replicas (ids `0..n`) and one client per script (ids from `n`).
fn rsm_procs<O>(
    n: usize,
    f: usize,
    scripts: [Vec<ClientOp>; 2],
    traced: bool,
) -> Vec<Box<dyn Process<O>>>
where
    O: From<RsmMsg> + 'static,
    RsmMsg: From<O>,
{
    let config = SystemConfig::new(n, f);
    let mut procs: Vec<Box<dyn Process<O>>> = (0..n)
        .map(|i| {
            Box::new(Probe::new(
                Box::new(Replica::new(i, config, MAX_ROUNDS)),
                Role::server(),
                0,
                traced,
            )) as Box<dyn Process<O>>
        })
        .collect();
    for (k, script) in scripts.into_iter().enumerate() {
        let planned = script.len();
        let client = WorkloadClient::new(k as u64 + 1, n, f, script);
        let role = Role {
            completed: |p| {
                p.as_any()
                    .downcast_ref::<WorkloadClient>()
                    .expect("client")
                    .results
                    .len()
            },
            mark: |m| match m {
                RsmMsg::NewValue(c) => Mark::Submit { read: c.is_nop() },
                RsmMsg::CnfReq(_) => Mark::Confirm,
                _ => Mark::Other,
            },
            submit_on_start: false,
        };
        procs.push(Box::new(Probe::new(
            Box::new(client),
            role,
            planned,
            traced,
        )));
    }
    procs
}

/// Reads replica state and runs `checks::check_all` over the clients.
fn rsm_inspect<O: WireMessage>(t: &dyn Transport<O>, n: usize) -> Inspect {
    let mut out = Inspect::default();
    for i in 0..n {
        visit::<RsmMsg, O, _>(t, i, |p| {
            let r = p
                .inner()
                .as_any()
                .downcast_ref::<Replica>()
                .expect("replica");
            out.decisions += r.inner.decisions.len() as u64;
            out.refinements += r.inner.refinements.values().sum::<u64>();
        });
    }
    let clients: Vec<WorkloadClient> = (n..t.node_count())
        .map(|i| {
            visit::<RsmMsg, O, _>(t, i, |p| {
                let c = p
                    .inner()
                    .as_any()
                    .downcast_ref::<WorkloadClient>()
                    .expect("client");
                // Liveness is accounted as failed ops (an unfinished
                // client is a stalled deployment); the copy carries the
                // results for the five safety properties.
                let mut copy = WorkloadClient::new(c.client_id, 0, 0, vec![]);
                copy.results = c.results.clone();
                copy
            })
        })
        .collect();
    let refs: Vec<&WorkloadClient> = clients.iter().collect();
    out.violation = checks::check_all(&refs).err().map(|e| e.to_string());
    out
}

/// A one-shot agreement process: its start event submits its op, its
/// decision completes it.
fn one_shot<M>(p: Box<dyn Process<M>>, traced: bool) -> Box<dyn Process<M>>
where
    M: WireMessage + 'static,
{
    let role = Role {
        completed: |p| decided(p).is_some() as usize,
        mark: |_| Mark::Other,
        submit_on_start: true,
    };
    Box::new(Probe::new(p, role, 1, traced))
}

/// `(decision, decision depth)` of a WTS or SbS process.
fn decided<M: 'static>(p: &dyn Process<M>) -> Option<(ValueSet<u64>, u64)> {
    let a = p.as_any();
    if let Some(w) = a.downcast_ref::<WtsProcess<u64>>() {
        return w.decision.clone().zip(w.decision_depth);
    }
    let s = a.downcast_ref::<SbsProcess<u64>>().expect("wts or sbs");
    s.decision.clone().zip(s.decision_depth)
}

/// The LA specification battery (`harness::assert_la_spec`) over the
/// processes of a WTS instance that decided; one that did not is a
/// failed op, not a safety violation.
fn wts_inspect(t: &dyn Transport<WtsMsg<u64>>, f: usize) -> Inspect {
    let mut out = Inspect::default();
    let mut report = WtsRunReport {
        pairs: vec![],
        decisions: vec![],
        decided: vec![],
        depths: vec![],
        max_refinements: 0,
    };
    let mut inputs = BTreeSet::new();
    for i in 0..t.node_count() {
        visit::<WtsMsg<u64>, _, _>(t, i, |p| {
            let w = p
                .inner()
                .as_any()
                .downcast_ref::<WtsProcess<u64>>()
                .expect("wts");
            out.refinements += w.refinements;
            inputs.insert(w.proposal);
            if let Some(d) = &w.decision {
                report.decided.push(true);
                report.pairs.push((w.proposal, d.clone()));
                report.decisions.push(d.clone());
            }
            if let Some(depth) = w.decision_depth {
                report.depths.push(depth);
                out.decide_hops_max = out.decide_hops_max.max(depth);
            }
        });
    }
    let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        assert_la_spec(&report, &inputs, f)
    }));
    if verdict.is_err() {
        out.violation = Some("WTS instance violates the LA specification".into());
    }
    out
}

/// Comparability, inclusivity and non-triviality over the processes of
/// an SbS instance that decided, with liveness over those processes as
/// in `assert_la_spec`; a process that did not decide is a failed op.
fn sbs_inspect(t: &dyn Transport<SbsMsg<u64>>, f: usize) -> Inspect {
    let mut out = Inspect::default();
    let (mut pairs, mut decisions, mut decided) = (vec![], vec![], vec![]);
    let mut inputs = BTreeSet::new();
    for i in 0..t.node_count() {
        visit::<SbsMsg<u64>, _, _>(t, i, |p| {
            let s = p
                .inner()
                .as_any()
                .downcast_ref::<SbsProcess<u64>>()
                .expect("sbs");
            out.refinements += s.refinements;
            inputs.insert(s.proposal);
            let v = s.verifier_stats();
            out.verifies += v.single_verifications + v.batch_verifications;
            let (hits, misses) = s.proof_cache_stats();
            out.cache.0 += hits;
            out.cache.1 += misses;
            if let Some(d) = &s.decision {
                decided.push(true);
                pairs.push((s.proposal, d.clone()));
                decisions.push(d.clone());
            }
            out.decide_hops_max = out.decide_hops_max.max(s.decision_depth.unwrap_or(0));
        });
    }
    out.violation = spec::check_comparability(&decisions)
        .and_then(|()| spec::check_inclusivity(&pairs))
        .and_then(|()| spec::check_nontriviality(&inputs, &decisions, f))
        .and_then(|()| spec::check_liveness(&decided))
        .err()
        .map(|e| format!("SbS instance: {e:?}"));
    out
}
