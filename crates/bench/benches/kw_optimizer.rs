//! Criterion benches of the stochastic-approximation optimisers: cost of a
//! Kiefer–Wolfowitz iteration and of full synthetic optimisation runs.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use stochastic_approx::KieferWolfowitz;

fn bench_kw(c: &mut Criterion) {
    let mut group = c.benchmark_group("stochastic_approx");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_secs(2));

    group.bench_function("kw_single_iteration", |b| {
        let mut kw = KieferWolfowitz::new(0.5, (0.0, 1.0));
        b.iter(|| {
            kw.record(0.7);
            kw.record(0.3);
        });
    });

    group.bench_function("kw_noisy_run_200_iters", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            let mut kw = KieferWolfowitz::new(0.8, (0.0, 1.0));
            kw.maximize(|x| -(x - 0.2f64).powi(2) + rng.gen_range(-0.01..0.01), 200)
        });
    });

    group.finish();
}

criterion_group!(benches, bench_kw);
criterion_main!(benches);
