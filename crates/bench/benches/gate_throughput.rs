//! E-gates: throughput of the Qat ALU's word-parallel gate operations vs a
//! per-bit "bit-serial" baseline, across entanglement degrees (paper §3:
//! "bit-level, massively-parallel, SIMD" — the word-parallel software
//! rendering should beat naive bit-at-a-time by ~64x).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pbp_aob::Aob;

/// Per-bit reference implementation of XOR (the "bit-serial" strawman).
fn xor_bitwise_reference(a: &Aob, b: &Aob) -> Aob {
    Aob::from_fn(a.ways(), |e| a.get(e) ^ b.get(e))
}

fn bench_gates(c: &mut Criterion) {
    let mut g = c.benchmark_group("gate_throughput");
    for ways in [8u32, 12, 16] {
        let a = Aob::hadamard(ways, 2);
        let b = Aob::hadamard(ways, ways - 1);
        g.bench_with_input(BenchmarkId::new("xor_word_parallel", ways), &ways, |bch, _| {
            bch.iter(|| Aob::xor_of(black_box(&a), black_box(&b)))
        });
        g.bench_with_input(BenchmarkId::new("xor_per_bit", ways), &ways, |bch, _| {
            bch.iter(|| xor_bitwise_reference(black_box(&a), black_box(&b)))
        });
        g.bench_with_input(BenchmarkId::new("ccnot", ways), &ways, |bch, _| {
            bch.iter(|| {
                let mut t = a.clone();
                t.ccnot_assign(black_box(&b), black_box(&a));
                t
            })
        });
        g.bench_with_input(BenchmarkId::new("cswap", ways), &ways, |bch, _| {
            bch.iter(|| {
                let (mut x, mut y) = (a.clone(), b.clone());
                Aob::cswap(&mut x, &mut y, black_box(&a));
                (x, y)
            })
        });
    }
    g.finish();

    // RE-symbol-scale vectors (2^22 bits).
    let mut g = c.benchmark_group("gate_throughput_large");
    g.sample_size(20);
    let ways = 22u32;
    let a = Aob::hadamard(ways, 3);
    let b = Aob::hadamard(ways, 21);
    g.bench_function("xor_scalar_4M", |bch| {
        bch.iter(|| {
            let mut t = a.clone();
            t.xor_assign(black_box(&b));
            t
        })
    });
    g.finish();
}

criterion_group!(benches, bench_gates);
criterion_main!(benches);
