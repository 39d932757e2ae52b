//! Multi-stream scheduler: places independent jobs on simulated devices.
//!
//! Each simulated device owns a [`Timeline`] with a fixed number of streams.
//! Job placement is deterministic: the caller picks the device, and the
//! scheduler picks that device's stream whose last enqueued operation
//! finishes earliest, breaking ties by lowest stream index — so a fixed
//! workload always produces the same schedule, which the integration tests
//! assert.
//! Out-of-core requests place their chunks' H2D, kernel and D2H stages on
//! streams they choose ([`Scheduler::place_chunk`]), on the same timelines.

use gpu_sim::Timeline;

/// Where and when a job was scheduled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Device index the job runs on.
    pub device: usize,
    /// Stream index within the device.
    pub stream: usize,
    /// Simulated start time in microseconds.
    pub start_us: f64,
    /// Simulated finish time in microseconds.
    pub finish_us: f64,
}

/// Deterministic earliest-free-stream placement over one timeline per
/// device.
///
/// `Clone` so the `modelcheck` crate can branch scheduler state at every
/// explored interleaving; [`Scheduler::digest`] gives the matching
/// state-hash for interleaving dedup.
#[derive(Clone)]
pub struct Scheduler {
    timelines: Vec<Timeline>,
}

impl Scheduler {
    /// Creates a scheduler for `devices` devices with `streams_per_device`
    /// streams each (both clamped to at least one).
    pub fn new(devices: usize, streams_per_device: usize) -> Self {
        let devices = devices.max(1);
        Scheduler {
            timelines: (0..devices)
                .map(|_| Timeline::new(streams_per_device))
                .collect(),
        }
    }

    /// Number of streams on `device` (zero when out of range).
    pub fn streams(&self, device: usize) -> usize {
        self.timelines.get(device).map_or(0, Timeline::streams)
    }

    /// Places a job on the earliest-free stream of `device` (clamped to the
    /// last device): from `ready_us`, `dead_us` of blocked-but-idle time
    /// (failed attempts, stalls, backoff), then `duration_us` of work. Dead
    /// time counts toward the makespan but not toward busy time, like a
    /// dependency wait, so utilization stays honest under fault injection.
    pub fn place_on_device(
        &mut self,
        device: usize,
        ready_us: f64,
        dead_us: f64,
        duration_us: f64,
    ) -> Placement {
        let device = device.min(self.timelines.len() - 1);
        let (stream, avail) = earliest_stream(&self.timelines[device]);
        self.stall_stream(device, stream, ready_us, dead_us);
        let finish_us = self.timelines[device].push(stream, duration_us);
        Placement {
            device,
            stream,
            start_us: avail.max(ready_us),
            finish_us,
        }
    }

    /// When `stream` on `device` can next start work (its last enqueued
    /// operation's finish time; zero when idle, `INFINITY` out of range).
    pub fn stream_available_us(&self, device: usize, stream: usize) -> f64 {
        match self.timelines.get(device) {
            Some(t) if stream < t.streams() => t.stream_elapsed_us(stream),
            _ => f64::INFINITY,
        }
    }

    /// When `device` can next start work: the minimum over its streams of
    /// their last enqueued finish times (zero when idle, `INFINITY` out of
    /// range). The deadline-shedding estimator and replica selection both
    /// read queue depth through this.
    pub fn device_available_us(&self, device: usize) -> f64 {
        self.timelines
            .get(device)
            .map_or(f64::INFINITY, |t| earliest_stream(t).1)
    }

    /// Places out-of-core chunk `index` on `device`: its H2D, kernel and
    /// D2H stages (durations in `stages_us`) go on `streams` in that order.
    /// A stage starts once its stream is free and its predecessor ended —
    /// the software-pipeline recurrence over the streams' fronts:
    ///
    /// ```text
    /// h2d_start[k]    = max(h2d stream front,    ready_us)
    /// kernel_start[k] = max(kernel stream front, h2d_end[k])
    /// d2h_start[k]    = max(d2h stream front,    kernel_end[k])
    /// ```
    ///
    /// Each stream serializes its stages (one copy engine per direction,
    /// one compute queue), so with three streams and three or more chunks
    /// the H2D of chunk `k+1` overlaps the kernel of chunk `k` and the D2H
    /// of chunk `k−1`. Stages that share a stream serialize with each
    /// other: `[0, 1, 1]` keeps the next upload under the current kernel,
    /// `[0, 0, 0]` degenerates to serial execution. Pass the pipeline's
    /// start as `ready_us`, at or after every used stream's front.
    pub fn place_chunk(
        &mut self,
        device: usize,
        streams: [usize; 3],
        ready_us: f64,
        index: usize,
        stages_us: [f64; 3],
    ) -> ooc::ChunkSchedule {
        let timeline = &mut self.timelines[device];
        let mut after = ready_us;
        let mut spans = [(0.0, 0.0); 3];
        for ((span, stream), duration_us) in spans.iter_mut().zip(streams).zip(stages_us) {
            let start = timeline.stream_elapsed_us(stream).max(after);
            after = timeline.push_after(stream, after, duration_us);
            *span = (start, after);
        }
        ooc::ChunkSchedule {
            index,
            h2d: spans[0],
            kernel: spans[1],
            d2h: spans[2],
        }
    }

    /// Blocks `stream` on `device` for `dead_us` of idle-but-occupied time
    /// starting no earlier than `ready_us` (chunk retries and backoff):
    /// counts toward the makespan but not toward busy time.
    pub fn stall_stream(&mut self, device: usize, stream: usize, ready_us: f64, dead_us: f64) {
        if let Some(t) = self.timelines.get_mut(device) {
            t.try_push_after(stream, ready_us, 0.0);
            t.stall(stream, dead_us.max(0.0));
        }
    }

    /// A 64-bit digest of the full scheduler state (every stream's elapsed
    /// and busy time, bit-exact), seeded by `seed`. Equal schedules always
    /// digest equally, so the model checker can dedup interleavings that
    /// converged to the same timeline.
    pub fn digest(&self, seed: u64) -> u64 {
        let mut h = crate::ledger::splitmix(seed ^ 0x5349_4d53_4348_4544);
        for timeline in &self.timelines {
            for s in 0..timeline.streams() {
                h = crate::ledger::splitmix(h ^ timeline.stream_elapsed_us(s).to_bits());
                h = crate::ledger::splitmix(h ^ timeline.stream_busy_us(s).to_bits());
            }
        }
        h
    }

    /// When the last job across all devices finishes (the makespan).
    pub fn makespan_us(&self) -> f64 {
        self.timelines
            .iter()
            .map(Timeline::elapsed_us)
            .fold(0.0, f64::max)
    }

    /// Per-stream utilization for each device: `result[d][s]` is the busy
    /// fraction of stream `s` on device `d` relative to that device's
    /// makespan.
    pub fn utilizations(&self) -> Vec<Vec<f64>> {
        self.timelines.iter().map(Timeline::utilizations).collect()
    }
}

/// The stream of `timeline` whose last enqueued operation finishes
/// earliest (ties → lowest index), and when that is.
fn earliest_stream(timeline: &Timeline) -> (usize, f64) {
    let mut best = (0, f64::INFINITY);
    for s in 0..timeline.streams() {
        let t = timeline.stream_elapsed_us(s);
        if t < best.1 {
            best = (s, t);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robins_across_idle_streams() {
        let mut sched = Scheduler::new(1, 2);
        let a = sched.place_on_device(0, 0.0, 0.0, 100.0);
        let b = sched.place_on_device(0, 0.0, 0.0, 100.0);
        assert_eq!((a.device, a.stream), (0, 0));
        assert_eq!((b.device, b.stream), (0, 1));
        // Both overlap: makespan is one job, not two.
        assert_eq!(sched.makespan_us(), 100.0);
    }

    #[test]
    fn queues_behind_the_earliest_free_stream() {
        let mut sched = Scheduler::new(2, 2);
        let a = sched.place_on_device(1, 0.0, 0.0, 100.0);
        let b = sched.place_on_device(1, 0.0, 0.0, 100.0);
        let c = sched.place_on_device(1, 0.0, 0.0, 50.0);
        assert_eq!((a.stream, b.stream), (0, 1));
        // Third job queues behind the earliest-finishing stream (tie → 0).
        assert_eq!((c.device, c.stream), (1, 0));
        assert_eq!(c.start_us, 100.0);
        assert_eq!(sched.makespan_us(), 150.0);
        // An out-of-range device clamps to the last one.
        assert_eq!(sched.place_on_device(9, 0.0, 0.0, 1.0).device, 1);
    }

    #[test]
    fn ready_time_delays_start() {
        let mut sched = Scheduler::new(1, 1);
        let p = sched.place_on_device(0, 40.0, 0.0, 10.0);
        assert_eq!(p.start_us, 40.0);
        assert_eq!(p.finish_us, 50.0);
    }

    #[test]
    fn placement_is_deterministic() {
        let run = || {
            let mut sched = Scheduler::new(2, 2);
            (0..32)
                .map(|i| sched.place_on_device(i % 2, i as f64 * 3.0, 0.0, 17.0 + (i % 5) as f64))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn delayed_placement_charges_dead_time_to_makespan_not_busy() {
        let mut sched = Scheduler::new(1, 1);
        let p = sched.place_on_device(0, 10.0, 40.0, 50.0);
        assert_eq!(p.start_us, 10.0);
        assert_eq!(p.finish_us, 100.0);
        assert_eq!(sched.makespan_us(), 100.0);
        // Only the 50 µs of real work counts as busy.
        let u = sched.utilizations();
        assert!((u[0][0] - 0.5).abs() < 1e-12, "{:?}", u);
        // Zero dead time degenerates to a plain enqueue after the ready
        // time, bit for bit.
        let mut sched = Scheduler::new(1, 2);
        let mut plain = Timeline::new(2);
        let p = sched.place_on_device(0, 5.0, 0.0, 30.0);
        assert_eq!(Some(p.finish_us), plain.try_push_after(0, 5.0, 30.0));
        assert_eq!(sched.utilizations(), vec![plain.utilizations()]);
    }

    #[test]
    fn explicit_stream_occupation_and_stalls() {
        let mut sched = Scheduler::new(1, 3);
        assert_eq!(sched.stream_available_us(0, 1), 0.0);
        assert_eq!(sched.stream_available_us(0, 9), f64::INFINITY);
        assert_eq!(sched.device_available_us(0), 0.0);
        assert_eq!(sched.device_available_us(7), f64::INFINITY);
        // Earlier work on the kernel stream: the pipeline starts behind it.
        sched.place_on_device(0, 0.0, 0.0, 10.0);
        let c = sched.place_chunk(0, [1, 0, 2], 10.0, 0, [5.0, 20.0, 5.0]);
        assert_eq!(
            (c.h2d, c.kernel, c.d2h),
            ((10.0, 15.0), (15.0, 35.0), (35.0, 40.0))
        );
        assert_eq!(sched.stream_available_us(0, 0), 35.0);
        // A stall occupies without busy credit.
        sched.stall_stream(0, 1, 0.0, 50.0);
        assert_eq!(sched.stream_available_us(0, 1), 65.0);
        // Device availability is the min over streams: 35, 65, 40 → 35.
        assert_eq!(sched.device_available_us(0), 35.0);
        assert_eq!(sched.makespan_us(), 65.0);
        let u = sched.utilizations();
        assert!((u[0][1] - 5.0 / 65.0).abs() < 1e-12, "{u:?}");
        assert!(u[0][0] > 0.0);
    }

    /// Places `stages` as consecutive chunks of one pipeline starting at
    /// `ready_us` on a fresh device with `streams` streams.
    fn pipeline(
        streams: usize,
        map: [usize; 3],
        ready_us: f64,
        stages: &[[f64; 3]],
    ) -> (Scheduler, Vec<ooc::ChunkSchedule>) {
        let mut sched = Scheduler::new(1, streams);
        let chunks = stages
            .iter()
            .enumerate()
            .map(|(index, &stage)| sched.place_chunk(0, map, ready_us, index, stage))
            .collect();
        (sched, chunks)
    }

    fn finish_us(chunks: &[ooc::ChunkSchedule]) -> f64 {
        chunks.last().map_or(0.0, |c| c.d2h.1)
    }

    fn serial_us(stages: &[[f64; 3]]) -> f64 {
        stages.iter().flatten().sum()
    }

    fn kernel_us(chunks: &[ooc::ChunkSchedule]) -> f64 {
        chunks.iter().map(|c| c.kernel.1 - c.kernel.0).sum()
    }

    #[test]
    fn single_chunk_is_serial() {
        let stages = [[10.0, 20.0, 5.0]];
        let (sched, chunks) = pipeline(3, [0, 1, 2], 100.0, &stages);
        assert_eq!(finish_us(&chunks), 135.0);
        assert_eq!(finish_us(&chunks) - 100.0, serial_us(&stages));
        assert_eq!(sched.makespan_us(), 135.0);
    }

    #[test]
    fn four_chunk_pipeline_beats_serial() {
        let stages = [[10.0, 20.0, 5.0]; 4];
        let (_, chunks) = pipeline(3, [0, 1, 2], 0.0, &stages);
        // Kernel-bound steady state: 10 (fill) + 4·20 + 5 (drain) = 95.
        assert_eq!(finish_us(&chunks), 95.0);
        assert_eq!(serial_us(&stages), 140.0);
        assert!((kernel_us(&chunks) / 95.0 - 80.0 / 95.0).abs() < 1e-12);
    }

    #[test]
    fn stages_never_overlap_within_a_stream_or_chunk() {
        let stages = [[8.0, 3.0, 12.0], [2.0, 30.0, 1.0], [20.0, 1.0, 9.0]];
        let (_, chunks) = pipeline(3, [0, 1, 2], 50.0, &stages);
        for c in &chunks {
            assert!(c.h2d.1 <= c.kernel.0);
            assert!(c.kernel.1 <= c.d2h.0);
        }
        for pair in chunks.windows(2) {
            assert!(pair[0].h2d.1 <= pair[1].h2d.0);
            assert!(pair[0].kernel.1 <= pair[1].kernel.0);
            assert!(pair[0].d2h.1 <= pair[1].d2h.0);
        }
    }

    #[test]
    fn transfer_bound_pipeline_hides_kernels_instead() {
        let (_, chunks) = pipeline(3, [0, 1, 2], 0.0, &[[40.0, 4.0, 2.0]; 5]);
        // H2D-bound: 5·40 + 4 + 2 = 206.
        assert_eq!(finish_us(&chunks), 206.0);
        assert!(kernel_us(&chunks) / 206.0 < 0.2);
    }

    #[test]
    fn empty_pipeline_is_a_point() {
        let (sched, chunks) = pipeline(3, [0, 1, 2], 7.0, &[]);
        assert!(chunks.is_empty());
        assert_eq!(sched.makespan_us(), 0.0);
        assert_eq!(sched.utilizations(), vec![vec![0.0; 3]]);
    }

    #[test]
    fn pipeline_streams_are_opaque_labels() {
        let stages = [[10.0, 20.0, 5.0]; 4];
        let (_, dedicated) = pipeline(3, [0, 1, 2], 3.0, &stages);
        let (_, relabeled) = pipeline(8, [7, 2, 5], 3.0, &stages);
        assert_eq!(dedicated, relabeled);
    }

    #[test]
    fn two_stream_mapping_still_overlaps_h2d_with_compute() {
        let stages = [[10.0, 20.0, 5.0]; 3];
        // Two real streams, H2D alone on 0, kernel + D2H sharing 1: the
        // next chunk's upload hides behind the current kernel.
        let (_, chunks) = pipeline(2, [0, 1, 1], 0.0, &stages);
        assert_eq!(finish_us(&chunks), 85.0);
        for pair in chunks.windows(2) {
            assert!(pair[0].kernel.1 <= pair[1].kernel.0);
            assert!(pair[0].d2h.1 <= pair[1].kernel.0);
        }
        // Sharing the copy stream chains d2h(k) before h2d(k+1): with
        // uniform stages that issue order erases the overlap entirely.
        let (_, chained) = pipeline(2, [0, 1, 0], 0.0, &stages);
        assert_eq!(finish_us(&chained), serial_us(&stages));
        // One stream for everything degenerates to serial.
        let (sched, serial) = pipeline(1, [0, 0, 0], 0.0, &stages);
        assert_eq!(finish_us(&serial), serial_us(&stages));
        assert_eq!(sched.utilizations(), vec![vec![1.0]]);
    }

    #[test]
    fn kernel_stall_delays_subsequent_kernels_only() {
        let (mut sched, _) = pipeline(3, [0, 1, 2], 0.0, &[[10.0, 20.0, 5.0]]);
        // A faulted chunk burned 100 µs on the kernel stream.
        sched.stall_stream(0, 1, 0.0, 100.0);
        assert_eq!(sched.stream_available_us(0, 1), 130.0);
        let c = sched.place_chunk(0, [0, 1, 2], 0.0, 1, [10.0, 20.0, 5.0]);
        // H2D still overlapped the stall; the kernel waited it out.
        assert_eq!(c.h2d, (10.0, 20.0));
        assert_eq!(c.kernel, (130.0, 150.0));
        assert_eq!(c.d2h, (150.0, 155.0));
    }

    #[test]
    fn pinned_device_placement() {
        let mut sched = Scheduler::new(2, 2);
        let a = sched.place_on_device(1, 0.0, 0.0, 30.0);
        let b = sched.place_on_device(1, 0.0, 0.0, 30.0);
        assert_eq!(a.device, 1);
        assert_eq!(b.device, 1);
        assert_ne!(a.stream, b.stream);
        let u = sched.utilizations();
        assert_eq!(u.len(), 2);
        assert_eq!(u[0], vec![0.0, 0.0]);
        assert!(u[1].iter().all(|&x| x > 0.0));
    }
}
