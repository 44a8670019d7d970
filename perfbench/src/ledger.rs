//! Span ledger for the traced run.
//!
//! Every call the benchmark makes into a layer is wrapped in
//! [`Ledger::time`]. Spans are recorded only from the benchmark's own code,
//! around calls into the program, so they never nest: the `&mut` borrow a
//! span holds makes opening a second one inside it impossible, and the
//! ledger check below confirms that the spans of one thread never add up to
//! more than that thread's traced wall time. Whatever wall time no span
//! covers is the residual, `bench.unattributed.ns`.
//!
//! A disabled ledger (the untraced run) only calls the closure.

use sanctorum_machine::Machine;
use std::collections::BTreeMap;
use std::time::Instant;

/// Totals of one named span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Entry {
    /// Work items the span covered (calls, or requests for a batched call).
    pub items: u64,
    /// Wall-clock nanoseconds inside the span.
    pub ns: u64,
    /// Modelled machine cycles charged inside the span, where recorded.
    pub cycles: u64,
}

/// One thread's spans, counters and traced wall time.
#[derive(Debug, Default)]
pub struct Ledger {
    enabled: bool,
    entries: BTreeMap<&'static str, Entry>,
    counters: BTreeMap<&'static str, f64>,
    wall_ns: u64,
    /// Sum of the per-thread residuals (wall minus spans), each checked to
    /// be non-negative before threads are merged.
    residual_ns: u64,
    started: Option<Instant>,
    /// Span nanoseconds already recorded when the current segment began.
    attributed_at_begin: u64,
    last_ns: u64,
}

impl Ledger {
    /// A ledger that records (`enabled`) or only forwards calls.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            ..Self::default()
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts the traced wall clock of this thread.
    pub fn begin(&mut self) {
        self.attributed_at_begin = self.attributed_ns();
        self.started = Some(Instant::now());
    }

    /// Stops the traced wall clock and checks that this thread's spans fit
    /// inside it.
    ///
    /// # Errors
    ///
    /// Fails when the spans cover more than the wall time, which would mean
    /// a layer was counted twice.
    pub fn end(&mut self) -> Result<(), String> {
        let started = self.started.take().expect("ledger ended without begin");
        let wall = started.elapsed().as_nanos() as u64;
        let covered = self.attributed_ns() - self.attributed_at_begin;
        if covered > wall {
            return Err(format!(
                "ledger: spans cover {covered} ns of a {wall} ns traced wall time"
            ));
        }
        self.wall_ns += wall;
        self.residual_ns += wall - covered;
        Ok(())
    }

    /// Times `f` as one call into `name`.
    #[inline]
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.time_items(name, 1, f)
    }

    /// Times `f` as one span covering `items` work items (a batched call is
    /// one span that serves several requests).
    #[inline]
    pub fn time_items<T>(&mut self, name: &'static str, items: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        let entry = self.entries.entry(name).or_default();
        entry.items += items;
        entry.ns += ns;
        self.last_ns = ns;
        out
    }

    /// Times `f` as one call into `name` and records the modelled cycles
    /// `machine` charged meanwhile.
    #[inline]
    pub fn time_cycles<T>(
        &mut self,
        name: &'static str,
        machine: &Machine,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let before = machine.total_cycles().count();
        let out = self.time(name, f);
        let charged = machine.total_cycles().count() - before;
        self.entries
            .get_mut(name)
            .expect("span just recorded")
            .cycles += charged;
        out
    }

    /// Wall-clock nanoseconds of the most recent span.
    pub fn last_ns(&self) -> u64 {
        self.last_ns
    }

    /// Adds `value` to the counter `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            *self.counters.entry(name).or_default() += value;
        }
    }

    /// Folds another thread's ledger into this one.
    pub fn merge(&mut self, other: Ledger) {
        for (name, entry) in other.entries {
            let mine = self.entries.entry(name).or_default();
            mine.items += entry.items;
            mine.ns += entry.ns;
            mine.cycles += entry.cycles;
        }
        for (name, value) in other.counters {
            *self.counters.entry(name).or_default() += value;
        }
        self.wall_ns += other.wall_ns;
        self.residual_ns += other.residual_ns;
    }

    /// The recorded spans.
    pub fn entries(&self) -> &BTreeMap<&'static str, Entry> {
        &self.entries
    }

    /// One span's totals (zero when the layer was never entered).
    pub fn entry(&self, name: &str) -> Entry {
        self.entries.get(name).copied().unwrap_or_default()
    }

    /// A counter's value (zero when never added to).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or_default()
    }

    /// Nanoseconds covered by spans, across all merged threads.
    pub fn attributed_ns(&self) -> u64 {
        self.entries.values().map(|e| e.ns).sum()
    }

    /// Traced wall time, summed over threads.
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }

    /// Traced wall time no span covers, summed over threads.
    pub fn residual_ns(&self) -> u64 {
        self.residual_ns
    }

    /// The ledger identity: spans plus residual equal the wall time exactly.
    ///
    /// # Errors
    ///
    /// Fails when the identity does not hold.
    pub fn check(&self) -> Result<(), String> {
        let attributed = self.attributed_ns();
        if attributed + self.residual_ns != self.wall_ns {
            return Err(format!(
                "ledger: {attributed} ns attributed + {} ns residual != {} ns wall",
                self.residual_ns, self.wall_ns
            ));
        }
        Ok(())
    }
}
