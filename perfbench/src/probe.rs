//! The benchmark's process wrapper.
//!
//! Every process of a measured deployment runs inside a [`Probe`]: the
//! probe owns the real protocol process, forwards each event to it
//! through an embedding [`Context`] (the same mechanism `Replica` uses
//! to host GWTS), and re-wraps the outgoing messages into the
//! runtime's message type. Around that forwarding it measures from
//! outside, through public API only:
//!
//! * always: op submission and completion stamps (wall clock and causal
//!   depth), which give every latency and hop figure;
//! * traced runs only: handler time per incoming message kind, handler
//!   spans, self-sends, and a 1-in-[`SAMPLE_EVERY`] sample of outgoing
//!   messages for the codec replay.

use crate::measure::{now_ns, thread_id};
use bgla_simnet::{Context, Process, ProcessId, WireMessage};
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One outgoing message in this many is kept for the codec replay.
pub const SAMPLE_EVERY: u64 = 8;

/// Handler spans a run keeps in memory (the first ones recorded);
/// per-kind aggregates stay complete past it.
static SPAN_BUDGET: AtomicUsize = AtomicUsize::new(200_000);

/// What an outgoing message means to the op accounting.
pub enum Mark {
    /// Protocol traffic.
    Other,
    /// The first copy of a new op's request (a read when `read`).
    Submit { read: bool },
    /// A read entering its confirmation round.
    Confirm,
}

/// How a probe recognises ops of the process it hosts.
pub struct Role<I> {
    /// Ops the process has completed so far.
    pub completed: fn(&dyn Process<I>) -> usize,
    /// Classifies an outgoing message.
    pub mark: fn(&I) -> Mark,
    /// The process's start event submits its (single) op.
    pub submit_on_start: bool,
}

impl<I> Role<I> {
    /// A process that serves but issues no ops (an RSM replica).
    pub fn server() -> Role<I> {
        Role {
            completed: |_| 0,
            mark: |_| Mark::Other,
            submit_on_start: false,
        }
    }
}

/// One completed op.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    /// The process that issued the op.
    pub node: ProcessId,
    /// Index of the op within its process.
    pub seq: usize,
    /// Submission stamp, in ns since the run's epoch.
    pub submit_ns: u64,
    /// Completion stamp.
    pub done_ns: u64,
    /// Message delays from submission to completion.
    pub hops: u64,
    /// Whether the op was an RSM read.
    pub read: bool,
    /// Read confirmation round: (duration in ns, message delays).
    pub confirm: Option<(u64, u64)>,
}

impl OpRecord {
    /// Client-visible latency in ms.
    pub fn ms(&self) -> f64 {
        (self.done_ns - self.submit_ns) as f64 / 1e6
    }
}

struct Open {
    seq: usize,
    submit_ns: u64,
    depth: u64,
    read: bool,
    confirm: Option<(u64, u64)>,
}

/// One handler call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Incoming message kind (`start` for the start event).
    pub kind: &'static str,
    /// Start, in ns since the run's epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

/// Traced-run state of one probe.
pub struct Tracer<I> {
    /// Per incoming kind: (handler calls, handler ns).
    pub handler: BTreeMap<&'static str, (u64, u64)>,
    /// Handler spans, while the run's span budget lasts.
    pub spans: Vec<Span>,
    /// Outgoing messages addressed to the sender itself.
    pub self_sends: u64,
    /// Sampled outgoing messages, flagged when addressed to the sender.
    pub sample: Vec<(bool, I)>,
    /// The thread that runs this process's events.
    pub tid: u64,
    sent: u64,
}

/// The wrapper. `I` is the hosted process's message type; the probe
/// itself is a `Process<O>` for any runtime message type `O` that
/// converts to and from `I`.
pub struct Probe<I> {
    inner: Box<dyn Process<I>>,
    role: Role<I>,
    open: Option<Open>,
    submitted: usize,
    completed: usize,
    /// Ops the hosted process's script asks for.
    pub planned: usize,
    /// Completed ops, in order.
    pub ops: Vec<OpRecord>,
    /// Present in traced runs.
    pub tracer: Option<Tracer<I>>,
}

impl<I: WireMessage + 'static> Probe<I> {
    /// Wraps `inner`, which must complete `planned` ops; `traced` turns
    /// on the traced-run measurements.
    pub fn new(
        inner: Box<dyn Process<I>>,
        role: Role<I>,
        planned: usize,
        traced: bool,
    ) -> Probe<I> {
        Probe {
            inner,
            role,
            open: None,
            submitted: 0,
            completed: 0,
            planned,
            ops: Vec::new(),
            tracer: traced.then(|| Tracer {
                handler: BTreeMap::new(),
                spans: Vec::new(),
                self_sends: 0,
                sample: Vec::new(),
                tid: 0,
                sent: 0,
            }),
        }
    }

    /// The hosted process.
    pub fn inner(&self) -> &dyn Process<I> {
        self.inner.as_ref()
    }

    /// Whether the hosted process completed every planned op.
    pub fn finished(&self) -> bool {
        self.ops.len() >= self.planned
    }

    fn submit(&mut self, at_ns: u64, depth: u64, read: bool) {
        self.open = Some(Open {
            seq: self.submitted,
            submit_ns: at_ns,
            depth,
            read,
            confirm: None,
        });
        self.submitted += 1;
    }

    fn handle<O: From<I>>(
        &mut self,
        kind: &'static str,
        start: bool,
        ctx: &mut Context<O>,
        f: impl FnOnce(&mut dyn Process<I>, &mut Context<I>),
    ) {
        let mut ictx = Context::for_embedding(ctx.me, ctx.n, ctx.depth, ctx.local_events);
        let t0 = self.tracer.as_ref().map(|_| now_ns());
        f(self.inner.as_mut(), &mut ictx);
        let now = now_ns();
        if let (Some(tr), Some(t0)) = (self.tracer.as_mut(), t0) {
            if tr.tid == 0 {
                tr.tid = thread_id();
            }
            let e = tr.handler.entry(kind).or_insert((0, 0));
            e.0 += 1;
            e.1 += now - t0;
            let budget = SPAN_BUDGET
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1));
            if budget.is_ok() {
                tr.spans.push(Span {
                    kind,
                    start_ns: t0,
                    dur_ns: now - t0,
                });
            }
        }
        // A completion and the next submission may share one event:
        // close first, then open.
        let done = (self.role.completed)(self.inner.as_ref());
        if done > self.completed {
            self.completed = done;
            if let Some(o) = self.open.take() {
                self.ops.push(OpRecord {
                    node: ctx.me,
                    seq: o.seq,
                    submit_ns: o.submit_ns,
                    done_ns: now,
                    hops: ctx.depth - o.depth,
                    read: o.read,
                    confirm: o.confirm.map(|(t, d)| (now - t, ctx.depth - d)),
                });
            }
        }
        if start && self.role.submit_on_start {
            self.submit(now, ctx.depth, false);
        }
        for (to, m) in ictx.take_outbox() {
            match (self.role.mark)(&m) {
                Mark::Submit { read } if self.open.is_none() => self.submit(now, ctx.depth, read),
                Mark::Confirm => {
                    if let Some(o) = self.open.as_mut() {
                        o.confirm.get_or_insert((now, ctx.depth));
                    }
                }
                _ => {}
            }
            if let Some(tr) = self.tracer.as_mut() {
                let to_self = to == ctx.me;
                tr.self_sends += to_self as u64;
                if tr.sent % SAMPLE_EVERY == 0 {
                    tr.sample.push((to_self, m.clone()));
                }
                tr.sent += 1;
            }
            ctx.send(to, O::from(m));
        }
    }
}

impl<I, O> Process<O> for Probe<I>
where
    I: WireMessage + From<O> + 'static,
    O: From<I> + 'static,
{
    fn on_start(&mut self, ctx: &mut Context<O>) {
        self.handle("start", true, ctx, |p, c| p.on_start(c));
    }

    fn on_message(&mut self, from: ProcessId, msg: O, ctx: &mut Context<O>) {
        let msg = I::from(msg);
        let kind = msg.kind();
        self.handle(kind, false, ctx, |p, c| p.on_message(from, msg, c));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The probe behind a runtime's `as_any` view of one of its processes.
pub fn probe_of<I: 'static>(p: &dyn Any) -> &Probe<I> {
    p.downcast_ref::<Probe<I>>()
        .expect("every benchmark process runs inside a Probe")
}
