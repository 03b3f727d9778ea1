//! The encode/deposit kernels versus the scalar paths they replace.
//!
//! Four comparisons, each isolating one tentpole optimization:
//!
//! * `encode/*` — the multi-lane chunk encode kernel
//!   ([`encode_f64_batch`], PR 7's lane-struct + sharded-bank rework of
//!   the PR-5 branchless kernel) against the per-value Listing-1
//!   `encode_deposit` loop it short-circuits. Same input, same
//!   `BatchAcc`, bitwise-identical output; only the conversion strategy
//!   differs (4-lane extraction, table-driven widening multiply, and
//!   lane-sharded scatter banks vs a branch per value).
//! * `encode_le_bytes` — the zero-copy wire entry
//!   ([`encode_f64_le_batch`]): the same kernel fed straight from LE
//!   payload bytes, as the service's binary-Add path does.
//! * `deposit/*` — the 8-wide unrolled [`BatchAcc::deposit_chunk`]
//!   against one [`BatchAcc::deposit`] call per pre-encoded value.
//! * `sum_1m/*` — the lane kernel against the routed
//!   [`BatchAcc::extend_f64`] on a 1 Mi-value slice, far past
//!   [`BINS_MIN_LEN`](oisum_core::BINS_MIN_LEN), where the route takes
//!   the exponent-indexed bins.
//!
//! The loadgen's `--values-per-batch` mode runs the encode pairs without
//! criterion and writes the speedups to `BENCH_kernels.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use oisum_analysis::workload::uniform_symmetric;
use oisum_core::{encode_f64_batch, encode_f64_le_batch, BatchAcc, Hp6x3};
use std::hint::black_box;

const N: usize = 1 << 16;

fn bench_encode_kernel(c: &mut Criterion) {
    let xs = uniform_symmetric(N, 23);
    let mut g = c.benchmark_group("encode_64k");
    g.throughput(Throughput::Elements(N as u64));

    // The pre-PR-5 path: one branchy Listing-1 encode per value.
    g.bench_function("scalar_encode_deposit", |b| {
        b.iter(|| {
            let mut acc = BatchAcc::<6, 3>::new();
            for &x in black_box(&xs[..]) {
                acc.encode_deposit(x);
            }
            black_box(acc.finish())
        })
    });

    // The multi-lane chunk kernel.
    g.bench_function("encode_f64_batch", |b| {
        b.iter(|| {
            let mut acc = BatchAcc::<6, 3>::new();
            encode_f64_batch(&mut acc, black_box(&xs[..]));
            black_box(acc.finish())
        })
    });

    // The same kernel fed from wire bytes (the service's binary-Add
    // ingest: LE payload straight into the lanes, no `Vec<f64>`).
    let wire: Vec<u8> = xs.iter().flat_map(|x| x.to_le_bytes()).collect();
    g.bench_function("encode_f64_le_batch", |b| {
        b.iter(|| {
            let mut acc = BatchAcc::<6, 3>::new();
            encode_f64_le_batch(&mut acc, black_box(&wire[..]));
            black_box(acc.finish())
        })
    });

    g.finish();
}

fn bench_deposit_chunk(c: &mut Criterion) {
    let xs = uniform_symmetric(N, 29);
    let encoded: Vec<Hp6x3> = xs.iter().map(|&x| Hp6x3::from_f64_unchecked(x)).collect();
    let mut g = c.benchmark_group("deposit_64k");
    g.throughput(Throughput::Elements(N as u64));

    g.bench_function("deposit_per_value", |b| {
        b.iter(|| {
            let mut acc = BatchAcc::<6, 3>::new();
            for v in black_box(&encoded[..]) {
                acc.deposit(v);
            }
            black_box(acc.finish())
        })
    });

    g.bench_function("deposit_chunk", |b| {
        b.iter(|| {
            let mut acc = BatchAcc::<6, 3>::new();
            acc.deposit_chunk(black_box(&encoded[..]));
            black_box(acc.finish())
        })
    });

    g.finish();
}

fn bench_sum_1m(c: &mut Criterion) {
    const LEN: usize = 1 << 20;
    let xs = uniform_symmetric(LEN, 31);
    let mut g = c.benchmark_group("sum_1m");
    g.throughput(Throughput::Elements(LEN as u64));

    // The lane kernel over the whole slice.
    g.bench_function("encode_f64_batch", |b| {
        b.iter(|| {
            let mut acc = BatchAcc::<6, 3>::new();
            encode_f64_batch(&mut acc, black_box(&xs[..]));
            black_box(acc.finish())
        })
    });

    // The routed entry behind `sum_f64_slice`: the bins at this length.
    g.bench_function("extend_f64", |b| {
        b.iter(|| {
            let mut acc = BatchAcc::<6, 3>::new();
            acc.extend_f64(black_box(&xs[..]));
            black_box(acc.finish())
        })
    });

    g.finish();
}

criterion_group!(benches, bench_encode_kernel, bench_deposit_chunk, bench_sum_1m);
criterion_main!(benches);
