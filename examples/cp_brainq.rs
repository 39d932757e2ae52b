//! CP decomposition of a brainq-like fMRI tensor (noun × voxel × subject),
//! comparing the paper's unified-GPU implementation against SPLATT on the
//! CPU — a miniature of the paper's Fig. 10 experiment.
//!
//! Run with: `cargo run --release --example cp_brainq`

use unified_tensors::prelude::*;

fn main() {
    let (tensor, info) = datasets::generate(DatasetKind::Brainq, 60_000, 7);
    println!("dataset: {}", info.table_row());
    // Rank 8, like the paper (brainq's third mode has size 9, so larger
    // ranks would produce a deficient Gram matrix — §V-E).
    let opts = CpOptions {
        rank: 8,
        max_iters: 10,
        tol: 1e-6,
        seed: 3,
    };

    println!("\n== SPLATT (CSF, CPU pool) ==");
    let mut splatt = SplattEngine::new(&tensor);
    let splatt_run = cp_als(&tensor, &mut splatt, &opts).expect("engine computes every MTTKRP");
    report(&splatt_run);

    println!("\n== Unified (F-COO, simulated Titan X) ==");
    let device = GpuDevice::titan_x();
    let mut unified =
        UnifiedGpuEngine::new(&device, &tensor, 16, LaunchConfig::default().block_size)
            .expect("brainq fits on the device");
    let unified_run = cp_als(&tensor, &mut unified, &opts).expect("engine computes every MTTKRP");
    report(&unified_run);

    println!(
        "\nunified/splatt total time ratio: {:.2}x (CPU wall-clock vs simulated GPU µs)",
        splatt_run.total_us() / unified_run.total_us()
    );
    println!(
        "fits agree to {:.2e} (same algorithm, different engines)",
        (splatt_run.fit - unified_run.fit).abs()
    );
}

fn report(run: &CpRun) {
    println!(
        "engine {:<12} fit {:.4} after {} iterations",
        run.engine, run.fit, run.iterations
    );
    for (mode, &time) in run.mode_us.iter().enumerate() {
        println!("  mode-{} MTTKRP total: {:>10.1} µs", mode + 1, time);
    }
    println!("  other (dense ops):   {:>10.1} µs", run.other_us);
    println!("  total:               {:>10.1} µs", run.total_us());
    let max = run.mode_us.iter().copied().fold(0.0f64, f64::max);
    let min = run.mode_us.iter().copied().fold(f64::INFINITY, f64::min);
    println!("  mode balance (max/min): {:.2}", max / min);
}
