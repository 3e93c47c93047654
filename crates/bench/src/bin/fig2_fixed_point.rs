//! Experiment E1 — Fig. 2 / Eq. 1: bit-sliced fixed-point MVM in ReRAM crossbars.
//!
//! Reproduces the worked 4×4 integer example of the paper exactly, then cross-checks the
//! pipeline against exact integer arithmetic on a larger random case and reports the
//! cycle counts of §III.A.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use refloat_bench::args::{known_flags, or_exit};
use refloat_bench::table::TextTable;
use reram_sim::xbar::{reference_mvm, FixedPointMvm};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    or_exit("fig2_fixed_point", known_flags(&args, &[], &[]));
    println!("== Fig. 2 / Eq. 1: fixed-point MVM in ReRAM (bit-sliced pipeline) ==\n");

    // The logical matrix applied in Eq. 1 is the transpose of the printed one.
    let matrix: Vec<u64> = vec![
        0, 11, 9, 14, //
        13, 14, 5, 6, //
        7, 3, 2, 9, //
        11, 8, 5, 15,
    ];
    let x = vec![6u64, 12, 6, 13];
    let engine = FixedPointMvm::new(&matrix, 4, 4);
    let y = engine.multiply(&x, 4);

    let mut t = TextTable::new(["output row", "pipeline", "expected (paper)"]);
    for (i, (got, expect)) in y.iter().zip([368u128, 354, 207, 387].iter()).enumerate() {
        t.row([i.to_string(), got.to_string(), expect.to_string()]);
    }
    println!("{}", t.render());
    println!(
        "crossbars (1-bit slices of the 4-bit matrix): {}\ncycles C_int = N_v + N_M - 1 = {}\n",
        engine.num_crossbars(),
        engine.cycles(4)
    );
    assert_eq!(
        y,
        vec![368, 354, 207, 387],
        "the Fig. 2 example must reproduce exactly"
    );

    // A larger randomized cross-check: 64x64, 8-bit matrix, 12-bit vector.
    let mut rng = ChaCha8Rng::seed_from_u64(2023);
    let size = 64;
    let m: Vec<u64> = (0..size * size).map(|_| rng.gen_range(0..256)).collect();
    let v: Vec<u64> = (0..size).map(|_| rng.gen_range(0..4096)).collect();
    let engine = FixedPointMvm::new(&m, size, 8);
    let got = engine.multiply(&v, 12);
    let expect = reference_mvm(&m, size, &v);
    assert_eq!(got, expect, "pipeline must be exact for arbitrary operands");
    println!(
        "random 64x64 cross-check: exact ({} crossbars, {} cycles for an 8-bit matrix x 12-bit vector)",
        engine.num_crossbars(),
        engine.cycles(12)
    );
}
