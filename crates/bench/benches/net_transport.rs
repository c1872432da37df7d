//! `cs_net` layer throughput: wire-codec encode/decode and one full
//! thread-per-node computation step over TCP loopback (plaintext mode) per
//! population size.

use chiaroscuro::noise::SlotLayout;
use chiaroscuro::rounds::CryptoContext;
use chiaroscuro::ChiaroscuroConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cs_bench::datasets::synthetic_contributions;
use cs_bigint::BigUint;
use cs_crypto::Ciphertext;
use cs_net::runtime::{run_step_over_tcp, NetConfig};
use cs_net::wire::{decode_frame, decode_frame_traced, encode_frame, encode_frame_traced, Message};
use cs_obs::{CausalTracer, TraceContext, Tracer, VirtualClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

fn encrypted_push(slots: usize, slot_bytes: usize) -> Message {
    let mut rng = StdRng::seed_from_u64(1);
    Message::PackedPush {
        iteration: 7,
        denom_exp: 12,
        weight: 0.125,
        buckets: slots as u32,
        slots: (0..slots)
            .map(|_| {
                let bytes: Vec<u8> = (0..slot_bytes).map(|_| rng.gen::<u8>()).collect();
                Ciphertext::from_biguint(BigUint::from_bytes_le(&bytes))
            })
            .collect(),
    }
}

fn bench_wire_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("net/wire_codec");
    for slot_bytes in [64usize, 256] {
        let msg = encrypted_push(24, slot_bytes);
        let frame = encode_frame(&msg);
        group.throughput(Throughput::Bytes(frame.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("encode", slot_bytes),
            &msg,
            |bench, msg| bench.iter(|| encode_frame(criterion::black_box(msg))),
        );
        group.bench_with_input(
            BenchmarkId::new("decode", slot_bytes),
            &frame,
            |bench, frame| bench.iter(|| decode_frame(criterion::black_box(frame)).unwrap()),
        );
    }
    group.finish();
}

fn bench_tcp_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("net/step_plain_tcp");
    for n in [8usize, 16] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, &n| {
            let config = ChiaroscuroConfig {
                k: 2,
                gossip_cycles: 12,
                ..ChiaroscuroConfig::demo_simulated()
            };
            let layout = SlotLayout {
                k: 2,
                series_len: 8,
            };
            let mut rng = StdRng::seed_from_u64(2);
            let crypto = CryptoContext::from_config(&config, &mut rng).unwrap();
            let contributions = synthetic_contributions(n, &layout, 3);
            let net = NetConfig {
                push_interval: Duration::from_micros(100),
                ..NetConfig::default()
            };
            bench.iter(|| {
                run_step_over_tcp(&config, &layout, &contributions, &crypto, 42, &net, &[]).unwrap()
            });
        });
    }
    group.finish();
}

/// The causal-tracing tax: a traced frame carries 24 extra bytes and one
/// extra branch on both codec paths, and every send/recv records one ring
/// event. These benches price each piece so "tracing is cheap enough to
/// leave on" stays a measured claim rather than folklore.
fn bench_trace_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("net/wire_codec_traced");
    let msg = encrypted_push(24, 256);
    let ctx = TraceContext {
        trace_id: 42,
        span_id: ((7u64 + 1) << 32) | 3,
        parent_id: 9,
    };
    let frame = encode_frame_traced(&msg, ctx);
    group.throughput(Throughput::Bytes(frame.len() as u64));
    group.bench_function("encode", |bench| {
        bench.iter(|| encode_frame_traced(criterion::black_box(&msg), criterion::black_box(ctx)))
    });
    group.bench_function("decode", |bench| {
        bench.iter(|| decode_frame_traced(criterion::black_box(&frame)).unwrap())
    });
    group.finish();

    let mut group = c.benchmark_group("obs/causal_event");
    group.throughput(Throughput::Elements(1));
    group.bench_function("on_send_ring", |bench| {
        let clock = Arc::new(VirtualClock::new());
        let ring = Arc::new(Tracer::ring(clock, 8192));
        let mut causal = CausalTracer::new(ring, 42, 7, TraceContext::NONE);
        let mut peer = 0u64;
        bench.iter(|| {
            peer = (peer + 1) % 1024;
            criterion::black_box(causal.on_send(peer, 1))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_wire_codec,
    bench_tcp_step,
    bench_trace_overhead
);
criterion_main!(benches);
