//! Integration tests for the clustering-based reduction family.

use trace_reduction::clustering::{
    cluster_reduce, euclidean_distance_matrix, kmeans, rank_features, silhouette_score,
    KMeansConfig, Normalization,
};
use trace_reduction::sim::{SizePreset, Workload, WorkloadKind};

fn generate(kind: WorkloadKind) -> trace_reduction::model::AppTrace {
    Workload::new(kind, SizePreset::Tiny).generate()
}

#[test]
fn clustering_separates_the_imbalanced_halves_of_dyn_load_balance() {
    let full = generate(WorkloadKind::DynLoadBalance);
    let features = rank_features(&full, Normalization::MinMax);
    let matrix = euclidean_distance_matrix(&features);
    let result = kmeans(&features, &KMeansConfig::new(2));
    assert!(silhouette_score(&matrix, &result.assignments) > 0.0);

    // The benchmark gives ranks 0..n/2 and n/2..n different load patterns;
    // a 2-way clustering should not mix the two halves completely.
    let n = full.rank_count();
    let lower: Vec<usize> = result.assignments[..n / 2].to_vec();
    let upper: Vec<usize> = result.assignments[n / 2..].to_vec();
    let lower_majority = lower.iter().filter(|&&c| c == lower[0]).count();
    let upper_in_lower_cluster = upper.iter().filter(|&&c| c == lower[0]).count();
    assert!(
        lower_majority > upper_in_lower_cluster,
        "lower half {lower:?} and upper half {upper:?} should differ in majority cluster"
    );
}

#[test]
fn cluster_reduction_shrinks_retained_data_proportionally_to_k() {
    let full = generate(WorkloadKind::LateSender);
    let features = rank_features(&full, Normalization::MinMax);
    let matrix = euclidean_distance_matrix(&features);
    let n = full.rank_count();

    let sizes: Vec<f64> = [2usize, n]
        .iter()
        .map(|&k| {
            let result = kmeans(&features, &KMeansConfig::new(k));
            let clustered = cluster_reduce(&full, &result.assignments, &matrix);
            clustered.retained_fraction()
        })
        .collect();
    assert!(sizes[0] < sizes[1]);
    assert!(
        (sizes[1] - 1.0).abs() < 1e-9,
        "k = rank count retains everything"
    );
}
