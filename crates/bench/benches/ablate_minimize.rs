//! Ablation: espresso with and without the REDUCE phase, plus the
//! pre-optimization (naive) kernel and serial-vs-batch drivers for scale.
use criterion::{criterion_group, criterion_main, Criterion};
use synthir_core::random::random_table;
use synthir_logic::espresso::{minimize, minimize_tt_batch, EspressoOptions};
use synthir_logic::naive::minimize_naive;
use synthir_logic::{Cover, TruthTable};

fn bench(c: &mut Criterion) {
    let words = random_table(256, 1, 3);
    let tt = TruthTable::from_fn(8, |m| words[m] & 1 != 0);
    let on = Cover::from_truth_table(&tt);
    let mut g = c.benchmark_group("ablate_minimize");
    g.sample_size(20);
    g.bench_function("espresso_full", |b| {
        b.iter(|| minimize(&on, None, &EspressoOptions::default()))
    });
    g.bench_function("espresso_no_reduce", |b| {
        b.iter(|| {
            minimize(
                &on,
                None,
                &EspressoOptions {
                    reduce: false,
                    ..Default::default()
                },
            )
        })
    });
    // The seed kernel on the same cover: the URP rework's win at 8 vars.
    g.bench_function("espresso_naive_kernel", |b| {
        b.iter(|| minimize_naive(&on, None, &EspressoOptions::default()))
    });
    // Multi-output batch driver (parallel).
    let wide = random_table(256, 16, 7);
    let tts: Vec<TruthTable> = (0..16)
        .map(|bit| TruthTable::from_fn(8, |m| wide[m] >> bit & 1 != 0))
        .collect();
    g.bench_function("batch_16_outputs", |b| {
        b.iter(|| minimize_tt_batch(&tts, None, &EspressoOptions::default()))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
