//! Measures what warm-start repartitioning buys on a mutating graph: the same
//! social-network proxy is churned by batches of increasing size, and the warm-started
//! repartition (seeded from the pre-churn partition, short refinement schedule) is
//! compared against a from-scratch run on the identical mutated graph. The paired
//! `cold_after_*` / `warm_after_*` entries are the headline: at small churn the warm
//! path skips initialisation and most label-propagation sweeps. `apply_1pct_batch`
//! prices the incremental CSR rebuild itself.

use criterion::{criterion_group, criterion_main, Criterion};
use xtrapulp::{try_pulp_partition, PartitionParams, PulpPartitioner, WarmStartPartitioner};
use xtrapulp_bench::scaled;
use xtrapulp_dynamic::{seed_from_previous, DynamicGraph, UpdateBatch};
use xtrapulp_gen::{generate_stream, GraphConfig, GraphKind, StreamKind, UpdateStreamConfig};

fn bench_dynamic(c: &mut Criterion) {
    let base = GraphConfig::new(
        GraphKind::BarabasiAlbert {
            num_vertices: scaled(1 << 14),
            edges_per_vertex: 8,
        },
        42,
    )
    .generate();
    let csr = base.to_csr();
    let params = PartitionParams {
        num_parts: 8,
        seed: 3,
        ..Default::default()
    };
    let previous = try_pulp_partition(&csr, &params).expect("valid params");
    let m = csr.num_edges();

    let mut group = c.benchmark_group("dynamic_repartition_ba14_8parts");
    group.sample_size(10);

    group.bench_function("cold_from_scratch", |b| {
        b.iter(|| try_pulp_partition(&csr, &params).unwrap())
    });

    for churn_pct in [0.1f64, 1.0, 5.0] {
        let ops = ((m as f64 * churn_pct / 100.0) as usize).max(2);
        let stream = generate_stream(
            &base,
            &UpdateStreamConfig {
                kind: StreamKind::RandomChurn {
                    ops_per_batch: ops,
                    delete_fraction: 0.5,
                },
                num_batches: 1,
                seed: 7,
            },
        );
        let mut graph = DynamicGraph::new(csr.clone());
        let batch = UpdateBatch::from_ops(stream.batch_ops(0));
        let delta = graph.validate(&batch).expect("generated streams are valid");
        graph.apply_validated(&delta);
        let seed = seed_from_previous(&previous, &delta);
        let mutated = graph.csr().clone();

        group.bench_function(format!("warm_after_{churn_pct}pct_churn"), |b| {
            b.iter(|| {
                PulpPartitioner
                    .try_partition_from(&mutated, &params, &seed)
                    .unwrap()
            })
        });
        group.bench_function(format!("cold_after_{churn_pct}pct_churn"), |b| {
            b.iter(|| try_pulp_partition(&mutated, &params).unwrap())
        });
    }

    // The price of the incremental rebuild itself (validate + apply one 1% batch).
    let ops = ((m as f64 * 0.01) as usize).max(2);
    let stream = generate_stream(
        &base,
        &UpdateStreamConfig {
            kind: StreamKind::RandomChurn {
                ops_per_batch: ops,
                delete_fraction: 0.5,
            },
            num_batches: 1,
            seed: 19,
        },
    );
    let batch = UpdateBatch::from_ops(stream.batch_ops(0));
    group.bench_function("apply_1pct_batch", |b| {
        b.iter(|| {
            let mut graph = DynamicGraph::new(csr.clone());
            graph.apply(&batch).unwrap()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_dynamic);
criterion_main!(benches);
