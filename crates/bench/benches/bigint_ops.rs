//! Micro-benchmarks of the arbitrary-precision substrate: the modular
//! operations that dominate every Damgård-Jurik cost, per operand size.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use cs_bigint::rng::{random_below, random_bits};
use cs_bigint::{BigUint, MontgomeryCtx};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn odd_modulus(bits: usize, rng: &mut StdRng) -> BigUint {
    let mut m = random_bits(rng, bits);
    m.set_bit(0, true);
    m
}

fn bench_mul(c: &mut Criterion) {
    let mut group = c.benchmark_group("bigint/mul");
    let mut rng = StdRng::seed_from_u64(1);
    for bits in [256usize, 1024, 4096] {
        let a = random_bits(&mut rng, bits);
        let b = random_bits(&mut rng, bits);
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |bench, _| {
            bench.iter(|| black_box(&a) * black_box(&b));
        });
    }
    group.finish();
}

fn bench_div_rem(c: &mut Criterion) {
    let mut group = c.benchmark_group("bigint/div_rem");
    let mut rng = StdRng::seed_from_u64(2);
    for bits in [512usize, 2048] {
        let a = random_bits(&mut rng, 2 * bits);
        let d = random_bits(&mut rng, bits);
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |bench, _| {
            bench.iter(|| black_box(&a).div_rem(black_box(&d)));
        });
    }
    group.finish();
}

fn bench_mont_mul(c: &mut Criterion) {
    let mut group = c.benchmark_group("bigint/montgomery_mul_mod");
    let mut rng = StdRng::seed_from_u64(3);
    for bits in [512usize, 1024, 2048, 4096] {
        let m = odd_modulus(bits, &mut rng);
        let ctx = MontgomeryCtx::new(&m);
        let a = random_below(&mut rng, &m);
        let b = random_below(&mut rng, &m);
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |bench, _| {
            bench.iter(|| ctx.mul_mod(black_box(&a), black_box(&b)));
        });
    }
    group.finish();
}

/// Squaring chains (`pow_mod_pow2`, 64 squarings): the kernel every
/// exponentiation spends most of its time in. 512 bits runs on stack arrays;
/// 2048 and 4096 bits (32/64 limbs, the `n²` of a 1024/2048-bit key) on
/// slices — the same two-row bodies either way.
fn bench_mont_sqr(c: &mut Criterion) {
    let mut group = c.benchmark_group("bigint/montgomery_sqr_x64");
    let mut rng = StdRng::seed_from_u64(5);
    for bits in [512usize, 2048, 4096] {
        let m = odd_modulus(bits, &mut rng);
        let ctx = MontgomeryCtx::new(&m);
        let a = random_below(&mut rng, &m);
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |bench, _| {
            bench.iter(|| ctx.pow_mod_pow2(black_box(&a), 64));
        });
    }
    group.finish();
}

fn bench_mod_pow(c: &mut Criterion) {
    let mut group = c.benchmark_group("bigint/mod_pow");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(4);
    for bits in [512usize, 1024, 2048, 4096] {
        let m = odd_modulus(bits, &mut rng);
        let ctx = MontgomeryCtx::new(&m);
        let base = random_below(&mut rng, &m);
        let exp = random_bits(&mut rng, bits);
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |bench, _| {
            bench.iter(|| ctx.pow_mod(black_box(&base), black_box(&exp)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_mul,
    bench_div_rem,
    bench_mont_mul,
    bench_mont_sqr,
    bench_mod_pow
);
criterion_main!(benches);
