//! Deterministic, zero-dependency instrumentation for the packet-buffer
//! stack.
//!
//! Three probe families, all clocked by slot time only (no wall clocks, no
//! RNG, no allocation after arm time):
//!
//! - [`Log2Histogram`] — fixed-shape latency/occupancy histograms whose merge
//!   is associative and commutative, so per-output and per-source partials
//!   combine into byte-identical reports in any merge order;
//! - [`SeriesRing`] — slot-sampled time-series of per-stage throughput,
//!   occupancy and stall causes in preallocated rings;
//! - [`FlightRecorder`] — a bounded ring of typed cell-lifecycle events
//!   ([`TraceEvent`]) renderable as Chrome trace-event JSON via
//!   [`chrome_trace_json`].
//!
//! Everything sits behind [`ObsConfig`]. The default, [`ObsConfig::off`],
//! arms nothing: consumers keep instrumentation state in `Option`s that stay
//! `None`, so the off path is byte-identical to an uninstrumented build (the
//! same discipline `fabric::faults` applies to empty fault plans).

mod hist;
mod series;
mod trace;

pub use hist::{bucket_of, bucket_upper_bound, Log2Histogram, HIST_BUCKETS};
pub use series::{SeriesRing, SeriesSample, MAX_SERIES_CAPACITY};
pub use trace::{
    chrome_trace_json, merge_events, EventKind, FlightRecorder, TraceEvent, TraceFilter,
    MAX_TRACE_CAPACITY,
};

/// Which probes to arm. [`ObsConfig::off`] (the `Default`) arms nothing and
/// is guaranteed overhead-free; [`ObsConfig::standard`] is the
/// histogram+series preset the benchmarks use to measure instrumentation
/// overhead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// Arm log2 latency histograms at egress ports (and first-injection
    /// latency at closed-loop sources when transport is enabled).
    pub latency_hist: bool,
    /// Arm per-VOQ backlog and per-link credit-occupancy histograms.
    pub occupancy_hist: bool,
    /// Time-series sampling stride in slots; 0 disables the series probes.
    pub series_stride: u64,
    /// Maximum samples kept per stage series ring.
    pub series_capacity: usize,
    /// Flight-recorder ring capacity per stage; 0 disables the recorder.
    pub trace_capacity: usize,
    /// First slot (inclusive) the flight recorder is armed for.
    pub trace_from_slot: u64,
    /// Last slot (inclusive) the flight recorder is armed for.
    pub trace_to_slot: u64,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self::off()
    }
}

impl ObsConfig {
    /// Arm nothing. Consumers must keep the off path byte-identical to an
    /// uninstrumented run.
    #[must_use]
    pub const fn off() -> Self {
        Self {
            latency_hist: false,
            occupancy_hist: false,
            series_stride: 0,
            series_capacity: 0,
            trace_capacity: 0,
            trace_from_slot: 0,
            trace_to_slot: u64::MAX,
        }
    }

    /// The histogram + series preset used by the overhead benchmarks: both
    /// histogram families on, series sampled every 64 slots, recorder off.
    #[must_use]
    pub fn standard() -> Self {
        Self {
            latency_hist: true,
            occupancy_hist: true,
            series_stride: 64,
            series_capacity: 1024,
            ..Self::off()
        }
    }

    /// True when no probe is armed.
    #[must_use]
    pub fn is_off(&self) -> bool {
        !self.latency_hist
            && !self.occupancy_hist
            && !self.series_enabled()
            && !self.trace_enabled()
    }

    /// True when the time-series probes are armed.
    #[must_use]
    pub fn series_enabled(&self) -> bool {
        self.series_stride > 0 && self.series_capacity > 0
    }

    /// True when the flight recorder is armed.
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.trace_capacity > 0
    }

    /// The first ring capacity above its bound ([`MAX_SERIES_CAPACITY`] or
    /// [`MAX_TRACE_CAPACITY`]), as `(field, bound, value)`, or `None` when
    /// none is. The rings clamp such a capacity; a caller holding outside
    /// input refuses it with this instead.
    #[must_use]
    pub fn out_of_range(&self) -> Option<(&'static str, usize, usize)> {
        [
            ("series_capacity", MAX_SERIES_CAPACITY, self.series_capacity),
            ("trace_capacity", MAX_TRACE_CAPACITY, self.trace_capacity),
        ]
        .into_iter()
        .find(|&(_, bound, value)| value > bound)
    }

    /// The recorder filter this configuration describes.
    #[must_use]
    pub fn trace_filter(&self) -> TraceFilter {
        TraceFilter {
            from_slot: self.trace_from_slot,
            to_slot: self.trace_to_slot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{
        FlightRecorder, ObsConfig, SeriesRing, SeriesSample, TraceEvent, TraceFilter,
        MAX_SERIES_CAPACITY, MAX_TRACE_CAPACITY,
    };

    #[test]
    fn off_is_default_and_arms_nothing() {
        let off = ObsConfig::default();
        assert_eq!(off, ObsConfig::off());
        assert!(off.is_off());
        assert!(!off.series_enabled());
        assert!(!off.trace_enabled());
    }

    #[test]
    fn standard_arms_histograms_and_series_only() {
        let std = ObsConfig::standard();
        assert!(!std.is_off());
        assert!(std.latency_hist && std.occupancy_hist);
        assert!(std.series_enabled());
        assert!(!std.trace_enabled());
    }

    #[test]
    fn ring_capacities_past_their_bounds_are_named_and_clamped() {
        let within = ObsConfig {
            series_stride: 1,
            series_capacity: MAX_SERIES_CAPACITY,
            trace_capacity: MAX_TRACE_CAPACITY,
            ..ObsConfig::off()
        };
        assert_eq!(within.out_of_range(), None);
        let hostile = ObsConfig {
            series_capacity: usize::MAX,
            trace_capacity: usize::MAX,
            ..within
        };
        assert_eq!(
            hostile.out_of_range(),
            Some(("series_capacity", MAX_SERIES_CAPACITY, usize::MAX))
        );
        let trace_only = ObsConfig {
            trace_capacity: MAX_TRACE_CAPACITY + 1,
            ..within
        };
        assert_eq!(
            trace_only.out_of_range(),
            Some(("trace_capacity", MAX_TRACE_CAPACITY, MAX_TRACE_CAPACITY + 1))
        );
        // The byte costs the bounds' docs quote.
        assert_eq!(std::mem::size_of::<SeriesSample>(), 32);
        assert_eq!(std::mem::size_of::<TraceEvent>(), 40);
        // The rings themselves clamp instead of overflowing the allocation.
        let ring = SeriesRing::new(1, usize::MAX);
        assert!(ring.samples().is_empty());
        let recorder = FlightRecorder::new(usize::MAX, TraceFilter::default());
        assert_eq!(recorder.dropped(), 0);
    }
}
