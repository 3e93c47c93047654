//! Experiments E2/E3 — Fig. 3(a)–(c): the closed-form cost model (Eq. 2 and Eq. 3).
//!
//! Prints the cycle-count surfaces over exponent bits (a) and fraction bits (b) and the
//! crossbar-count surface over matrix exponent/fraction bits (c), plus the headline
//! FP64 / Feinberg / ReFloat corner values quoted in §III.B and §VI.B.

use refloat_bench::args::Args;
use refloat_bench::table::TextTable;
use reram_sim::cost;

fn main() {
    Args::from_env("fig3_cost_model", &[], &[]);
    println!("== Fig. 3(a): cycles vs exponent bit counts (f_M = f_v = 52) ==\n");
    let mut t = TextTable::new(["e_v \\ e_M", "0", "2", "4", "6", "8", "10"]);
    for e_v in [0u32, 2, 4, 6, 8, 10] {
        let mut row = vec![e_v.to_string()];
        for e_m in [0u32, 2, 4, 6, 8, 10] {
            row.push(cost::cycle_count_eq3(e_m, 52, e_v, 52).to_string());
        }
        t.row(row);
    }
    println!("{}", t.render());

    println!("== Fig. 3(b): cycles vs fraction bit counts (e_M = e_v = 6) ==\n");
    let mut t = TextTable::new(["f_v \\ f_M", "0", "10", "20", "30", "40", "50"]);
    for f_v in [0u32, 10, 20, 30, 40, 50] {
        let mut row = vec![f_v.to_string()];
        for f_m in [0u32, 10, 20, 30, 40, 50] {
            row.push(cost::cycle_count_eq3(6, f_m, 6, f_v).to_string());
        }
        t.row(row);
    }
    println!("{}", t.render());

    println!("== Fig. 3(c): crossbars vs matrix exponent / fraction bits (Eq. 2) ==\n");
    let mut t = TextTable::new(["e_M \\ f_M", "0", "10", "20", "30", "40", "50"]);
    for e_m in [0u32, 2, 4, 6, 8, 10] {
        let mut row = vec![e_m.to_string()];
        for f_m in [0u32, 10, 20, 30, 40, 50] {
            row.push(cost::crossbar_count_eq2(e_m, f_m).to_string());
        }
        t.row(row);
    }
    println!("{}", t.render());

    println!("== Headline corner values ==\n");
    let mut t = TextTable::new(["configuration", "crossbars (Eq.2)", "cycles (Eq.3)"]);
    t.row([
        "FP64 (e=11, f=52)".to_string(),
        cost::crossbar_count_eq2(11, 52).to_string(),
        cost::cycle_count_eq3(11, 52, 11, 52).to_string(),
    ]);
    t.row([
        "Feinberg (e=6, f=52)".to_string(),
        cost::crossbar_count_eq2(6, 52).to_string(),
        cost::cycle_count_eq3(6, 52, 6, 52).to_string(),
    ]);
    t.row([
        "ReFloat (e=3, f=3 | ev=3, fv=8)".to_string(),
        cost::crossbar_count_eq2(3, 3).to_string(),
        cost::cycle_count_eq3(3, 3, 3, 8).to_string(),
    ]);
    println!("{}", t.render());
    println!("paper reference: FP64 = 8404 crossbars / 4201 cycles; Feinberg = 233 cycles; ReFloat = 28 cycles");
}
