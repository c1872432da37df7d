//! Gossip-layer throughput: cost of one full cycle (every node initiates one
//! exchange) for plaintext push-sum, per population and vector size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cs_gossip::pushsum::PushSumNode;
use cs_gossip::{FailureModel, Network, Overlay};

fn bench_pushsum_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("gossip/pushsum_cycle");
    for n in [256usize, 1024, 4096] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("dim8", n), &n, |bench, &n| {
            bench.iter_batched(
                || {
                    let nodes: Vec<PushSumNode> = (0..n)
                        .map(|i| PushSumNode::new(vec![i as f64; 8], 1.0))
                        .collect();
                    Network::new(nodes, Overlay::Full, FailureModel::none(), 7)
                },
                |mut net| net.run_cycle(),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_pushsum_vector_width(c: &mut Criterion) {
    // The Chiaroscuro aggregate vector is 2k(T+1) wide; sweep realistic widths.
    let mut group = c.benchmark_group("gossip/pushsum_cycle_width");
    let n = 512usize;
    for dim in [50usize, 250, 1000] {
        group.throughput(Throughput::Elements((n * dim) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |bench, &dim| {
            bench.iter_batched(
                || {
                    let nodes: Vec<PushSumNode> = (0..n)
                        .map(|i| PushSumNode::new(vec![i as f64; dim], 1.0))
                        .collect();
                    Network::new(nodes, Overlay::Full, FailureModel::none(), 8)
                },
                |mut net| net.run_cycle(),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pushsum_cycle, bench_pushsum_vector_width);
criterion_main!(benches);
