//! Regenerates every table and figure, printing to stdout and writing
//! copies under `results/`. Run with `--release` (several minutes).

use std::fs;

fn main() {
    let dir = std::path::Path::new("results");
    fs::create_dir_all(dir).expect("create results/");
    let reports: Vec<(&str, String)> = vec![
        ("table1.txt", nhpp_bench::reports::table1()),
        ("table2.txt", nhpp_bench::reports::table2()),
        ("table3.txt", nhpp_bench::reports::table3()),
        ("table4.txt", nhpp_bench::reports::table4()),
        ("table5.txt", nhpp_bench::reports::table5()),
        ("table6.txt", nhpp_bench::reports::table6()),
        ("table7.txt", nhpp_bench::reports::table7()),
        ("illposed.txt", nhpp_bench::reports::illposed()),
    ];
    for (name, report) in &reports {
        println!("\n================================================\n{report}");
        fs::write(dir.join(name), report).expect("write report");
    }
    let (fig_report, files) = nhpp_bench::reports::figure1();
    println!("\n================================================\n{fig_report}");
    fs::write(dir.join("figure1.txt"), &fig_report).expect("write report");
    for (name, csv) in files {
        fs::write(dir.join(&name), csv).expect("write csv");
    }
    println!("\nAll reports written to results/.");
}
