//! A minimal CUDA-stream timeline for modeling kernel overlap.
//!
//! The paper's CP decomposition uses two streams: one runs SpMTTKRP kernels,
//! the other runs the CUBLAS-style dense operations, "overlapped
//! automatically when possible" (§V-E). This timeline tracks per-stream busy
//! time and cross-stream dependencies.
//!
//! The serving scheduler (`crates/serve`) places independent jobs on these
//! streams, so the timeline additionally offers checked ([`Timeline::try_push`],
//! [`Timeline::try_push_after`]) and grow-on-demand ([`Timeline::ensure_stream`])
//! variants of the enqueue API, plus per-stream busy-time and utilization
//! accessors for the scheduler's metrics.

/// Busy-time accounting for a set of streams.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Finish time of the last operation enqueued on each stream.
    stream_time: Vec<f64>,
    /// Sum of enqueued durations per stream (excludes dependency waits).
    stream_busy: Vec<f64>,
}

impl Timeline {
    /// Creates a timeline with `streams` streams, all idle at time zero.
    pub fn new(streams: usize) -> Self {
        let streams = streams.max(1);
        Timeline {
            stream_time: vec![0.0; streams],
            stream_busy: vec![0.0; streams],
        }
    }

    /// Number of streams currently tracked.
    pub fn streams(&self) -> usize {
        self.stream_time.len()
    }

    /// Grows the timeline so that `stream` is a valid index; new streams
    /// start idle at time zero. No-op when the stream already exists.
    pub fn ensure_stream(&mut self, stream: usize) {
        if stream >= self.stream_time.len() {
            self.stream_time.resize(stream + 1, 0.0);
            self.stream_busy.resize(stream + 1, 0.0);
        }
    }

    /// Enqueues `duration_us` of work on `stream`; returns its finish time.
    ///
    /// # Panics
    /// If `stream` is out of range, naming the stream and the stream count.
    /// Use [`Timeline::try_push`] or [`Timeline::ensure_stream`] for
    /// dynamically sized schedulers.
    pub fn push(&mut self, stream: usize, duration_us: f64) -> f64 {
        match self.try_push(stream, duration_us) {
            Some(finish) => finish,
            None => panic!(
                "stream {stream} out of range: timeline has {} streams",
                self.stream_time.len()
            ),
        }
    }

    /// Enqueues work on `stream` that cannot start before `earliest_us`
    /// (a dependency on another stream's event). Returns the finish time.
    ///
    /// # Panics
    /// If `stream` is out of range, naming the stream and the stream count.
    pub fn push_after(&mut self, stream: usize, earliest_us: f64, duration_us: f64) -> f64 {
        match self.try_push_after(stream, earliest_us, duration_us) {
            Some(finish) => finish,
            None => panic!(
                "stream {stream} out of range: timeline has {} streams",
                self.stream_time.len()
            ),
        }
    }

    /// Checked variant of [`Timeline::push`]: returns `None` instead of
    /// panicking when `stream` is out of range.
    pub fn try_push(&mut self, stream: usize, duration_us: f64) -> Option<f64> {
        let time = self.stream_time.get_mut(stream)?;
        *time += duration_us;
        self.stream_busy[stream] += duration_us;
        Some(*time)
    }

    /// Checked variant of [`Timeline::push_after`]: returns `None` instead
    /// of panicking when `stream` is out of range.
    pub fn try_push_after(
        &mut self,
        stream: usize,
        earliest_us: f64,
        duration_us: f64,
    ) -> Option<f64> {
        let time = self.stream_time.get_mut(stream)?;
        let start = time.max(earliest_us);
        *time = start + duration_us;
        self.stream_busy[stream] += duration_us;
        Some(*time)
    }

    /// Fault-injection hook: models a hung kernel by advancing `stream` by
    /// `stall_us` of *dead* time. The stall counts toward the makespan (the
    /// stream is blocked) but not toward busy time, exactly like a
    /// dependency wait. Returns the stream's new finish time.
    ///
    /// # Panics
    /// If `stream` is out of range, naming the stream and the stream count.
    pub fn stall(&mut self, stream: usize, stall_us: f64) -> f64 {
        match self.stream_time.get_mut(stream) {
            Some(time) => {
                *time += stall_us.max(0.0);
                *time
            }
            None => panic!(
                "stream {stream} out of range: timeline has {} streams",
                self.stream_time.len()
            ),
        }
    }

    /// Current makespan: when the busiest stream finishes.
    pub fn elapsed_us(&self) -> f64 {
        self.stream_time.iter().copied().fold(0.0, f64::max)
    }

    /// Current busy time of one stream (finish time of its last operation).
    ///
    /// # Panics
    /// If `stream` is out of range, naming the stream and the stream count.
    pub fn stream_elapsed_us(&self, stream: usize) -> f64 {
        match self.stream_time.get(stream) {
            Some(&t) => t,
            None => panic!(
                "stream {stream} out of range: timeline has {} streams",
                self.stream_time.len()
            ),
        }
    }

    /// Total enqueued work on one stream in microseconds, excluding idle
    /// gaps from dependency waits. Returns zero for out-of-range streams.
    pub fn stream_busy_us(&self, stream: usize) -> f64 {
        self.stream_busy.get(stream).copied().unwrap_or(0.0)
    }

    /// Fraction of the timeline's makespan during which `stream` was busy,
    /// in `[0, 1]`. Zero when nothing has been enqueued anywhere.
    pub fn utilization(&self, stream: usize) -> f64 {
        let makespan = self.elapsed_us();
        if makespan <= 0.0 {
            return 0.0;
        }
        self.stream_busy_us(stream) / makespan
    }

    /// Per-stream utilization, one entry per stream.
    pub fn utilizations(&self) -> Vec<f64> {
        (0..self.streams()).map(|s| self.utilization(s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_streams_overlap() {
        let mut timeline = Timeline::new(2);
        timeline.push(0, 100.0);
        timeline.push(1, 80.0);
        assert_eq!(timeline.elapsed_us(), 100.0);
    }

    #[test]
    fn dependencies_delay_start() {
        let mut timeline = Timeline::new(2);
        let mttkrp_done = timeline.push(0, 100.0);
        // Dense update must wait for the MTTKRP result.
        let finish = timeline.push_after(1, mttkrp_done, 30.0);
        assert_eq!(finish, 130.0);
        assert_eq!(timeline.elapsed_us(), 130.0);
    }

    #[test]
    fn push_after_does_not_rewind_busy_stream() {
        let mut timeline = Timeline::new(2);
        timeline.push(1, 500.0);
        let finish = timeline.push_after(1, 100.0, 10.0);
        assert_eq!(finish, 510.0);
    }

    #[test]
    fn out_of_range_push_panics_with_named_stream() {
        let mut timeline = Timeline::new(2);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            timeline.push(5, 1.0);
        }))
        .unwrap_err();
        let message = err
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(message.contains("stream 5"), "got: {message}");
        assert!(message.contains("2 streams"), "got: {message}");
    }

    #[test]
    fn try_push_is_checked() {
        let mut timeline = Timeline::new(1);
        assert_eq!(timeline.try_push(0, 10.0), Some(10.0));
        assert_eq!(timeline.try_push(3, 10.0), None);
        assert_eq!(timeline.try_push_after(3, 0.0, 10.0), None);
        // The failed pushes left the timeline untouched.
        assert_eq!(timeline.elapsed_us(), 10.0);
    }

    #[test]
    fn ensure_stream_grows_on_demand() {
        let mut timeline = Timeline::new(1);
        timeline.ensure_stream(3);
        assert_eq!(timeline.streams(), 4);
        assert_eq!(timeline.push(3, 25.0), 25.0);
        // Growing to an existing stream is a no-op.
        timeline.ensure_stream(0);
        assert_eq!(timeline.streams(), 4);
    }

    #[test]
    fn utilization_excludes_dependency_waits() {
        let mut timeline = Timeline::new(2);
        timeline.push(0, 100.0);
        // Stream 1 waits 100 µs, then works 50 µs: busy 50 of 150 makespan.
        timeline.push_after(1, 100.0, 50.0);
        assert_eq!(timeline.stream_busy_us(0), 100.0);
        assert_eq!(timeline.stream_busy_us(1), 50.0);
        assert!((timeline.utilization(0) - 100.0 / 150.0).abs() < 1e-12);
        assert!((timeline.utilization(1) - 50.0 / 150.0).abs() < 1e-12);
        assert_eq!(timeline.utilizations().len(), 2);
    }

    #[test]
    fn empty_timeline_reports_zero_utilization() {
        let timeline = Timeline::new(2);
        assert_eq!(timeline.utilization(0), 0.0);
        assert_eq!(timeline.stream_busy_us(9), 0.0);
    }
}
