//! Layer spans recorded from outside the program.
//!
//! [`Traced`] wraps an [`FlAlgorithm`] and records one [`Span`] around every
//! call the simulator's driver makes into it, then forwards the call
//! unchanged. The layers are therefore bounded by public functions only:
//! no crate of the repository is instrumented. Everything the driver does
//! while no algorithm call is open (selection, the event queue, the fault
//! schedule, absorption accounting, idle waits) is the `driver` layer's self
//! time, computed by [`Breakdown::of`] as the run's wall-clock minus the
//! union of all spans.

use std::sync::Mutex;
use std::time::Instant;

use fedlps::nn::model::EvalStats;
use fedlps::sim::algorithm::{ClientOutcome, ClientReport, ClientUpdate};
use fedlps::sim::{FlAlgorithm, FlEnv};
use rand::rngs::StdRng;

/// The benchmark's one wall-clock read. Every timing in the benchmark goes
/// through here, so the determinism audit sees a single waived call site.
pub(crate) fn now() -> Instant {
    #[allow(clippy::disallowed_methods)]
    // fedlps-lint: allow(D2, wall-clock measurement is the benchmark's entire job; timings are reported and never fed back into simulation state)
    Instant::now()
}

/// Nanoseconds from `epoch` to `t`.
fn since(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// Which algorithm call a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layer {
    /// `FlAlgorithm::setup`.
    AlgoSetup,
    /// `select_clients` and `begin_round`, the round-level hooks.
    RoundHooks,
    /// `client_step`, on whichever backend thread ran it.
    ClientStep,
    /// `absorb_update` / `absorb_update_stale`.
    Absorb,
    /// `aggregate`.
    Aggregate,
    /// `evaluate_client`.
    Evaluate,
}

/// One algorithm call: its layer, its interval in nanoseconds since the
/// run's epoch, the client it served (steps and evaluations; 0 otherwise)
/// and, for evaluation, the number of samples it scored.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    pub(crate) layer: Layer,
    pub(crate) start: u64,
    pub(crate) end: u64,
    pub(crate) client: usize,
    pub(crate) samples: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

/// An [`FlAlgorithm`] decorator that records a [`Span`] around every call
/// and otherwise forwards it untouched. Every trait method is forwarded,
/// including the ones with default bodies: the default
/// `absorb_update_stale` drops the staleness weight, so relying on it would
/// silently change an asynchronous run.
#[derive(Debug)]
pub(crate) struct Traced<A> {
    pub(crate) inner: A,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl<A: FlAlgorithm> Traced<A> {
    /// Wraps `inner`; span times count from `epoch`.
    pub(crate) fn new(inner: A, epoch: Instant) -> Self {
        Self {
            inner,
            epoch,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Unwraps the algorithm and hands back the recorded spans.
    pub(crate) fn finish(self) -> (A, Vec<Span>) {
        let spans = self
            .spans
            .into_inner()
            .expect("no span recorder panicked while holding the lock");
        (self.inner, spans)
    }

    fn record(&self, layer: Layer, start: Instant, client: usize, samples: u64) {
        let end = now();
        let span = Span {
            layer,
            start: since(self.epoch, start),
            end: since(self.epoch, end),
            client,
            samples,
        };
        self.spans
            .lock()
            .expect("no span recorder panicked while holding the lock")
            .push(span);
    }
}

impl<A: FlAlgorithm> FlAlgorithm for Traced<A> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn setup(&mut self, env: &FlEnv) {
        let t = now();
        self.inner.setup(env);
        self.record(Layer::AlgoSetup, t, 0, 0);
    }

    fn select_clients(
        &mut self,
        env: &FlEnv,
        round: usize,
        rng: &mut StdRng,
    ) -> Option<Vec<usize>> {
        let t = now();
        let out = self.inner.select_clients(env, round, rng);
        self.record(Layer::RoundHooks, t, 0, 0);
        out
    }

    fn begin_round(&mut self, env: &FlEnv, round: usize, selected: &[usize], rng: &mut StdRng) {
        let t = now();
        self.inner.begin_round(env, round, selected, rng);
        self.record(Layer::RoundHooks, t, 0, 0);
    }

    fn client_step(
        &self,
        env: &FlEnv,
        round: usize,
        client: usize,
        rng: &mut StdRng,
    ) -> ClientOutcome {
        let t = now();
        let out = self.inner.client_step(env, round, client, rng);
        self.record(Layer::ClientStep, t, client, 0);
        out
    }

    fn absorb_update(&mut self, env: &FlEnv, round: usize, update: ClientUpdate) {
        let t = now();
        self.inner.absorb_update(env, round, update);
        self.record(Layer::Absorb, t, 0, 0);
    }

    fn absorb_update_stale(
        &mut self,
        env: &FlEnv,
        round: usize,
        update: ClientUpdate,
        staleness: u32,
        weight: f64,
    ) {
        let t = now();
        self.inner
            .absorb_update_stale(env, round, update, staleness, weight);
        self.record(Layer::Absorb, t, 0, 0);
    }

    fn aggregate(&mut self, env: &FlEnv, round: usize, reports: &[ClientReport]) {
        let t = now();
        self.inner.aggregate(env, round, reports);
        self.record(Layer::Aggregate, t, 0, 0);
    }

    fn evaluate_client(&self, env: &FlEnv, client: usize) -> EvalStats {
        let t = now();
        let stats = self.inner.evaluate_client(env, client);
        self.record(Layer::Evaluate, t, client, stats.samples as u64);
        stats
    }

    fn mean_accuracy(&self, env: &FlEnv) -> f64 {
        self.inner.mean_accuracy(env)
    }
}

/// Count, busy time and duration percentiles of one layer's spans.
#[derive(Debug, Clone, Default)]
pub(crate) struct LayerStats {
    pub(crate) count: u64,
    /// Summed span durations (across threads), seconds.
    pub(crate) busy_s: f64,
    /// Span durations in ascending order, seconds.
    pub(crate) sorted_s: Vec<f64>,
    /// Samples scored (evaluation only).
    pub(crate) samples: u64,
}

impl LayerStats {
    /// Stats of a set of call durations (seconds) that scored `samples`.
    pub(crate) fn from_durations(mut sorted_s: Vec<f64>, samples: u64) -> Self {
        sorted_s.sort_by(f64::total_cmp);
        Self {
            count: sorted_s.len() as u64,
            busy_s: sorted_s.iter().sum(),
            samples,
            sorted_s,
        }
    }

    fn of(spans: &[Span], layer: Layer) -> Self {
        let spans = spans.iter().filter(|s| s.layer == layer);
        Self::from_durations(
            spans.clone().map(Span::secs).collect(),
            spans.map(|s| s.samples).sum(),
        )
    }

    /// The `q`-quantile (nearest rank) of the span durations, seconds.
    pub(crate) fn quantile_s(&self, q: f64) -> f64 {
        quantile(&self.sorted_s, q)
    }
}

/// Nearest-rank `q`-quantile of an ascending slice (0 when empty).
pub(crate) fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Total length of the union of `[start, end)` intervals, nanoseconds.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// The per-layer breakdown of one traced `Simulator::run`.
#[derive(Debug, Clone)]
pub(crate) struct Breakdown {
    pub(crate) run_s: f64,
    pub(crate) algo_setup: LayerStats,
    pub(crate) round_hooks: LayerStats,
    pub(crate) client_step: LayerStats,
    pub(crate) absorb: LayerStats,
    pub(crate) aggregate: LayerStats,
    pub(crate) evaluate: LayerStats,
    /// Wall-clock during which at least one client step was running.
    pub(crate) step_cover_s: f64,
    /// Wall-clock during which at least one algorithm call was open; the
    /// rest of `run_s` is the driver's self time.
    pub(crate) span_cover_s: f64,
}

impl Breakdown {
    /// Splits a run of `run_ns` nanoseconds (counted from the spans' epoch)
    /// into its layers.
    pub(crate) fn of(spans: &[Span], run_ns: u64) -> Self {
        let cover = |filter: &dyn Fn(&Span) -> bool| {
            union_ns(
                spans
                    .iter()
                    .filter(|s| filter(s))
                    .map(|s| (s.start, s.end.min(run_ns)))
                    .collect(),
            )
        };
        let span_cover = cover(&|_| true);
        let step_cover = cover(&|s| s.layer == Layer::ClientStep);
        Self {
            run_s: run_ns as f64 * 1e-9,
            algo_setup: LayerStats::of(spans, Layer::AlgoSetup),
            round_hooks: LayerStats::of(spans, Layer::RoundHooks),
            client_step: LayerStats::of(spans, Layer::ClientStep),
            absorb: LayerStats::of(spans, Layer::Absorb),
            aggregate: LayerStats::of(spans, Layer::Aggregate),
            evaluate: LayerStats::of(spans, Layer::Evaluate),
            step_cover_s: step_cover as f64 * 1e-9,
            span_cover_s: span_cover as f64 * 1e-9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_ns(vec![(20, 30), (0, 10), (10, 12)]), 22);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn driver_self_time_is_the_uncovered_rest() {
        let span = |layer, start, end| Span {
            layer,
            start,
            end,
            client: 0,
            samples: 0,
        };
        let spans = [
            span(Layer::ClientStep, 10, 50),
            span(Layer::ClientStep, 20, 60),
            span(Layer::Absorb, 70, 80),
        ];
        let b = Breakdown::of(&spans, 100);
        assert!((b.span_cover_s - 60e-9).abs() < 1e-15);
        assert!((b.step_cover_s - 50e-9).abs() < 1e-15);
        assert!((b.run_s - b.span_cover_s - 40e-9).abs() < 1e-15);
        assert_eq!(b.client_step.count, 2);
        assert!((b.client_step.busy_s - 80e-9).abs() < 1e-15);
    }
}
