//! Fig. 10 bench: one full CP-ALS iteration sweep, SPLATT vs unified, on
//! brainq and nell2 at rank 8.

use bench_support::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use unified_tensors::prelude::*;

fn bench(c: &mut Criterion) {
    let nnz = bench_nnz();
    eprintln!("{}", render_cp(&fig10(nnz)));
    let opts = CpOptions {
        rank: 8,
        max_iters: 2,
        tol: 1e-7,
        seed: 3,
    };
    let mut group = c.benchmark_group("fig10_cp_decomposition");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_secs(2));
    for kind in [DatasetKind::Brainq, DatasetKind::Nell2] {
        let (tensor, info) = datasets::generate(kind, nnz, 2017);
        group.bench_with_input(BenchmarkId::new("splatt", &info.name), &(), |b, _| {
            b.iter(|| {
                let mut engine = SplattEngine::new(&tensor);
                cp_als(&tensor, &mut engine, &opts).expect("SPLATT computes every MTTKRP")
            })
        });
        group.bench_with_input(BenchmarkId::new("unified", &info.name), &(), |b, _| {
            b.iter(|| {
                let device = GpuDevice::titan_x();
                let mut engine =
                    UnifiedGpuEngine::new(&device, &tensor, 16, LaunchConfig::default().block_size)
                        .expect("fits");
                cp_als(&tensor, &mut engine, &opts).expect("device sized for CP-ALS")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
