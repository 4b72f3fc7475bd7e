//! Generator benchmarks: transition enumeration and assembly.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gprs_bench::{medium_model, small_model};
use gprs_ctmc::{SparseGenerator, Transitions};

fn bench_enumeration(c: &mut Criterion) {
    let model = medium_model();
    let n = model.num_states();
    let mut g = c.benchmark_group("transition_enumeration_190k");
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(20);
    g.bench_function("forward_full_pass", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for s in 0..n {
                model.for_each_outgoing(s, &mut |_, rate| acc += rate);
            }
            acc
        })
    });
    g.finish();
}

fn bench_sparse_assembly(c: &mut Criterion) {
    let model = small_model();
    let mut g = c.benchmark_group("sparse_assembly_15k");
    g.sample_size(20);
    g.bench_function("assemble_csr", |b| {
        b.iter(|| model.assemble_sparse().unwrap())
    });
    let sparse = model.assemble_sparse().unwrap();
    g.bench_function("rebuild_from_transitions", |b| {
        b.iter(|| SparseGenerator::from_transitions(&sparse).unwrap())
    });
    g.finish();
}

fn bench_state_codec(c: &mut Criterion) {
    let model = medium_model();
    let space = *model.space();
    let n = space.num_states();
    let mut g = c.benchmark_group("state_codec");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("decode_encode_round_trip", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for idx in 0..n {
                let s = space.decode(idx);
                acc = acc.wrapping_add(space.index(s));
            }
            acc
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_enumeration,
    bench_sparse_assembly,
    bench_state_codec
);
criterion_main!(benches);
