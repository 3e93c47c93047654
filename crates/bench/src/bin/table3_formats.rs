//! Experiment E6 — Table III: classical number formats expressed as ReFloat instances,
//! together with the hardware cost each would imply on the crossbar model.

use refloat_bench::args::Args;
use refloat_bench::table::TextTable;
use refloat_core::formats::table_iii;
use reram_sim::cost;

fn main() {
    Args::from_env("table3_formats", &[], &[]);
    println!("== Table III: formats represented by ReFloat(b, e, f) ==\n");
    let mut t = TextTable::new([
        "format",
        "ReFloat(b, e, f)",
        "bits/value",
        "crossbars (Eq.2)",
        "cycles (Eq.3, same vector format)",
    ]);
    for f in table_iii() {
        let c = f.config;
        t.row([
            f.name.to_string(),
            format!("ReFloat({}, {}, {})", c.b, c.e, c.f),
            f.bits_per_value.to_string(),
            cost::crossbar_count_eq2(c.e, c.f).to_string(),
            cost::cycle_count_eq3(c.e, c.f, c.ev, c.fv).to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "the paper's default solver format is ReFloat(7, 3, 3)(3, 8): {} crossbars per cluster, {} cycles per block MVM",
        cost::crossbars_per_cluster(3, 3),
        cost::cycle_count_eq3(3, 3, 3, 8)
    );
}
