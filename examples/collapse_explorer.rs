//! The paper's §5.3 story: what actually gets collapsed.
//!
//! Runs configuration D on one benchmark and prints the collapse
//! fraction, the 3-1/4-1/0-op category split, the distance histogram and
//! the most frequent collapsed sequences — the per-benchmark view behind
//! Figures 8–10 and Tables 5/6.
//!
//! Run with: `cargo run --release --example collapse_explorer [benchmark]`

use ddsc::collapse::CollapseCategory;
use ddsc::core::{simulate, PaperConfig, SimConfig};
use ddsc::experiments::cell::parse_benchmark;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "espresso".into());
    let bench = parse_benchmark(&name)?;

    let trace = bench.trace(1996, 150_000)?;
    let width = 16;
    let result = simulate(&trace, &SimConfig::paper(PaperConfig::D, width));
    let c = &result.collapse;

    println!("{} at issue width {width} (config D)", bench.name());
    println!(
        "collapsed: {:.1}% of instructions across {} groups\n",
        c.collapsed_pct().value(),
        c.groups()
    );

    println!("mechanism contributions:");
    for cat in [
        CollapseCategory::ThreeOne,
        CollapseCategory::FourOne,
        CollapseCategory::ZeroOp,
    ] {
        println!(
            "  {:<5} {:>5.1}%",
            cat.to_string(),
            c.category_pct(cat).value()
        );
    }

    println!("\ndistance between collapsed instructions:");
    let h = c.distance();
    for d in 1..=8u64 {
        let share = 100.0 * h.count(d) as f64 / h.total().max(1) as f64;
        if share > 0.05 {
            println!(
                "  {d:>2}: {share:>5.1}%  {}",
                "#".repeat((share / 2.0) as usize)
            );
        }
    }

    println!("\nmost frequent collapsed pairs:");
    for (key, count) in c.pairs().top(6) {
        println!(
            "  {:<14} {:>6.2}%  ({count} groups)",
            key.to_string(),
            c.pairs().share(&key).value()
        );
    }
    println!("\nmost frequent collapsed triples:");
    for (key, count) in c.triples().top(6) {
        println!(
            "  {:<18} {:>6.2}%  ({count} groups)",
            key.to_string(),
            c.triples().share(&key).value()
        );
    }
    Ok(())
}
