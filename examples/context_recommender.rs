//! Context-aware tag recommendation from a delicious-like user × item × tag
//! tensor — the recommender-system workload the paper's introduction
//! motivates (tensor methods in recommender systems [7]).
//!
//! A CP decomposition on the simulated GPU factorizes the tagging history;
//! the factors then score unseen (user, item, tag) triples, and the example
//! prints the top tags predicted for a (user, item) pair.
//!
//! Run with: `cargo run --release --example context_recommender`

use unified_tensors::prelude::*;

fn main() {
    // A scaled delicious-like tagging tensor.
    let (tensor, info) = datasets::generate(DatasetKind::Delicious, 30_000, 11);
    println!("tagging history: {}", info.table_row());

    let opts = CpOptions {
        rank: 16,
        max_iters: 8,
        tol: 1e-6,
        seed: 5,
    };
    let device = GpuDevice::titan_x();
    let mut engine = UnifiedGpuEngine::new(&device, &tensor, 8, LaunchConfig::default().block_size)
        .expect("tensor fits on the device");
    let run = cp_als(&tensor, &mut engine, &opts).expect("engine computes every MTTKRP");
    println!(
        "CP rank-{} factorization: fit {:.3} in {} iterations ({:.1} ms simulated GPU time)\n",
        opts.rank,
        run.fit,
        run.iterations,
        run.total_us() / 1e3
    );

    // Pick the user and item with the most observed activity.
    let user = busiest_index(&tensor, 0);
    let item = busiest_index(&tensor, 1);
    let num_tags = tensor.shape()[2];

    // Score every tag for (user, item) from the factors and rank them.
    let mut scores: Vec<(usize, f32)> = (0..num_tags)
        .map(|tag| {
            (
                tag,
                run.model.predict(&[user as u32, item as u32, tag as u32]),
            )
        })
        .collect();
    scores.sort_by(|a, b| b.1.total_cmp(&a.1));

    println!("top 10 recommended tags for user {user}, item {item}:");
    for (rank, (tag, score)) in scores.iter().take(10).enumerate() {
        println!("  {:>2}. tag {:>7}  score {score:.4}", rank + 1, tag);
    }

    // Sanity: tags the user actually used should score above the median.
    let median = scores[scores.len() / 2].1;
    let mut observed = Vec::new();
    for (coord, _) in tensor.iter() {
        if coord[0] as usize == user {
            observed.push(run.model.predict(&coord));
        }
    }
    let above = observed.iter().filter(|&&s| s > median).count();
    println!(
        "\n{} of {} of user {user}'s observed interactions score above the median tag — \
         the factorization carries signal",
        above,
        observed.len()
    );
}

/// The index with the most non-zeros along `mode`.
fn busiest_index(tensor: &SparseTensorCoo, mode: usize) -> usize {
    let mut counts = vec![0usize; tensor.shape()[mode]];
    for &index in tensor.mode_indices(mode) {
        counts[index as usize] += 1;
    }
    counts
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, _)| i)
        .unwrap_or(0)
}
