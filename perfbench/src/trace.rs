//! In-memory spans around every call the benchmark makes into a layer.
//!
//! A span records which call it timed, the transaction attempt that caused
//! it (the attempt's own `Txn` span carries the same id), its start relative
//! to the run's epoch, and its duration. Spans stay in memory until the run
//! ends and are then summarized; nothing is written out while measuring.

use std::time::Instant;

/// The public call a span timed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Call {
    /// A whole transaction attempt, begin to commit (or abort).
    Txn,
    /// `Database::begin` / `begin_with`.
    Begin,
    /// `Transaction::get`.
    Get,
    /// `Transaction::update` / `insert` / `delete`.
    Write,
    /// `Transaction::range_pk`.
    Range,
    /// `Transaction::commit` of a transaction that wrote nothing.
    CommitRead,
    /// `Transaction::commit` of a transaction that wrote.
    CommitWrite,
    /// `Database::vacuum` (no transaction: its id is 0).
    Vacuum,
    /// Server round trip of a read transaction: `BEGIN; 4×GET; COMMIT`.
    RtRead,
    /// Server round trip of a write transaction's `BEGIN; GET`.
    RtFetch,
    /// Server round trip of a write transaction's `PUT; COMMIT`.
    RtStore,
}

impl Call {
    pub const ALL: [Call; 11] = [
        Call::Txn,
        Call::Begin,
        Call::Get,
        Call::Write,
        Call::Range,
        Call::CommitRead,
        Call::CommitWrite,
        Call::Vacuum,
        Call::RtRead,
        Call::RtFetch,
        Call::RtStore,
    ];
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub call: Call,
    /// Transaction attempt id (unique within a run; 0 = no transaction).
    pub txn: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// One client thread's span buffer; a no-op when tracing is off.
pub struct Tracer {
    epoch: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    pub fn new(epoch: Instant, on: bool) -> Tracer {
        Tracer {
            epoch,
            spans: on.then(|| Vec::with_capacity(1 << 16)),
        }
    }

    pub fn on(&self) -> bool {
        self.spans.is_some()
    }

    /// Run `f`, recording a span for it when tracing is on.
    pub fn time<T>(&mut self, call: Call, txn: u64, f: impl FnOnce() -> T) -> T {
        if self.spans.is_none() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(call, txn, start, Instant::now());
        out
    }

    /// Run transaction attempt `txn`, recording its `Txn` span, the parent
    /// of the call spans `f` records.
    pub fn attempt<T>(&mut self, txn: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if self.spans.is_none() {
            return f(self);
        }
        let start = Instant::now();
        let out = f(self);
        self.record(Call::Txn, txn, start, Instant::now());
        out
    }

    /// Record a span whose ends the caller already took.
    pub fn record(&mut self, call: Call, txn: u64, start: Instant, end: Instant) {
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                call,
                txn,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                dur_ns: end.duration_since(start).as_nanos() as u64,
            });
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.unwrap_or_default()
    }
}

/// Span totals per call kind.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    count: [u64; Call::ALL.len()],
    total_ns: [u64; Call::ALL.len()],
    /// Σ over transaction spans of (duration − Σ durations of its child
    /// spans): the part of a transaction no timed call accounts for.
    unattributed_ns: i128,
}

impl Summary {
    pub fn of(spans: &[Span]) -> Summary {
        let mut s = Summary::default();
        let mut child_ns: std::collections::HashMap<u64, u64> = Default::default();
        for sp in spans {
            let i = sp.call as usize;
            s.count[i] += 1;
            s.total_ns[i] += sp.dur_ns;
            if sp.call != Call::Txn && sp.txn != 0 {
                *child_ns.entry(sp.txn).or_default() += sp.dur_ns;
            }
        }
        for sp in spans.iter().filter(|sp| sp.call == Call::Txn) {
            let children = child_ns.get(&sp.txn).copied().unwrap_or(0);
            s.unattributed_ns += sp.dur_ns as i128 - children as i128;
        }
        s
    }

    /// Add another summary's totals to this one.
    pub fn add(&mut self, other: &Summary) {
        for i in 0..Call::ALL.len() {
            self.count[i] += other.count[i];
            self.total_ns[i] += other.total_ns[i];
        }
        self.unattributed_ns += other.unattributed_ns;
    }

    pub fn count(&self, call: Call) -> u64 {
        self.count[call as usize]
    }

    pub fn total_ns(&self, call: Call) -> u64 {
        self.total_ns[call as usize]
    }

    /// Mean span duration of `call` in µs (0 when it never ran).
    pub fn mean_us(&self, call: Call) -> f64 {
        let n = self.count(call);
        if n == 0 {
            0.0
        } else {
            self.total_ns(call) as f64 / n as f64 / 1e3
        }
    }

    /// Mean unattributed time per transaction attempt, µs.
    pub fn unattributed_us(&self) -> f64 {
        let n = self.count(Call::Txn);
        if n == 0 {
            0.0
        } else {
            self.unattributed_ns as f64 / n as f64 / 1e3
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unattributed_is_txn_minus_children() {
        let sp = |call, txn, dur_ns| Span {
            call,
            txn,
            start_ns: 0,
            dur_ns,
        };
        let spans = [
            sp(Call::Txn, 1, 100),
            sp(Call::Begin, 1, 10),
            sp(Call::Get, 1, 30),
            sp(Call::CommitRead, 1, 20),
            sp(Call::Txn, 2, 50),
            sp(Call::Begin, 2, 50),
            sp(Call::Vacuum, 0, 1000),
        ];
        let s = Summary::of(&spans);
        assert_eq!(s.count(Call::Txn), 2);
        assert_eq!(s.mean_us(Call::Begin), 0.03);
        assert_eq!(s.unattributed_us(), 0.02);
        assert_eq!(s.mean_us(Call::Write), 0.0);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        assert_eq!(t.time(Call::Get, 1, || 7), 7);
        assert!(!t.on());
        assert!(t.into_spans().is_empty());
    }
}
