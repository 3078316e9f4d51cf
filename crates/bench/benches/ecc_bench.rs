//! Encode/reconstruct throughput of the erasure codes (the per-chunk cost
//! behind every rebuild the timing experiments simulate).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ecc::{ErasureCode, Raid6, ReedSolomon, XorParity};

const UNIT: usize = 64 * 1024;

fn data(k: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| (0..UNIT).map(|j| (i * 131 + j * 17 + 3) as u8).collect())
        .collect()
}

fn bench_codes(c: &mut Criterion) {
    let codes: Vec<Box<dyn ErasureCode>> = vec![
        Box::new(XorParity::new(6).unwrap()),
        Box::new(Raid6::new(6).unwrap()),
        Box::new(ReedSolomon::new(6, 3).unwrap()),
    ];
    let mut group = c.benchmark_group("ecc");
    group.sample_size(15);
    for code in &codes {
        let k = code.data_units();
        let d = data(k);
        group.throughput(Throughput::Bytes((k * UNIT) as u64));
        group.bench_function(format!("encode/{}", code.name()), |b| {
            b.iter(|| code.encode(black_box(&d)).unwrap())
        });
        let parity = code.encode(&d).unwrap();
        let full: Vec<Option<Vec<u8>>> = d.iter().cloned().chain(parity).map(Some).collect();
        group.bench_function(format!("reconstruct1/{}", code.name()), |b| {
            b.iter(|| {
                let mut units = full.clone();
                units[1] = None;
                code.reconstruct(black_box(&mut units)).unwrap();
                units
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_codes);
criterion_main!(benches);
