//! Regenerates every table and figure of the NOVA paper.
//!
//! Usage:
//!   tables [--quick] [--no-exact] [all|table1|table2|table3|table4|table5|table6|table7|figures|compare]...
//!
//! `--quick` restricts to the small/medium machines; `--no-exact` skips the
//! budgeted iexact runs (they dominate wall-clock on the mid-size machines).

use nova_bench::{report, tables, MachineReport};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let no_exact = args.iter().any(|a| a == "--no-exact");
    let mut wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    if wanted.is_empty() || wanted.contains(&"all") {
        wanted = vec![
            "table1", "table2", "table3", "table4", "table5", "table6", "table7", "figures",
            "compare", "sweep",
        ];
    }

    let machines = nova_bench::table_one_machines(quick);
    // Table V needs the extra machines (lion, lion9, modulo12, tav, dol).
    let mut all = machines;
    if wanted.contains(&"table5") {
        for b in fsm::benchmarks::table_five() {
            if !all.iter().any(|x| x.name == b.name) && (!quick || nova_bench::is_quick(&b)) {
                all.push(b);
            }
        }
    }

    let needs_reports = wanted.iter().any(|w| *w != "sweep");
    if !needs_reports {
        all.clear();
    }
    eprintln!(
        "evaluating {} machines (quick={quick}, exact={})...",
        all.len(),
        !no_exact
    );
    // One thread per machine, capped at the core count (each report is a
    // long single-threaded pipeline; the big machines dominate wall clock).
    let workers = fsm::cpus();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<MachineReport>>> = (0..all.len())
        .map(|_| std::sync::Mutex::new(None))
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(all.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(b) = all.get(i) else { break };
                eprintln!(
                    "  {} ({} states, {} rows)",
                    b.display_name(),
                    b.fsm.num_states(),
                    b.fsm.num_transitions()
                );
                let r = report(
                    b,
                    !no_exact && b.fsm.num_states() <= 20 && b.fsm.num_transitions() <= 120,
                );
                *slots[i].lock().expect("no poisoning") = Some(r);
            });
        }
    });
    let mut reports: Vec<MachineReport> = slots
        .into_iter()
        .map(|s| s.into_inner().expect("no poisoning").expect("filled"))
        .collect();
    // The paper's figures order machines by increasing state count.
    reports.sort_by(|a, b| a.states.cmp(&b.states).then(a.name.cmp(&b.name)));

    // Table I order is by increasing #states already; Table V picks its own.
    for w in wanted {
        let text = match w {
            "table1" => tables::table1(&reports),
            "table2" => tables::table2(&reports),
            "table3" => tables::table3(&reports),
            "table4" => tables::table4(&reports),
            "table5" => tables::table5(&reports),
            "table6" => tables::table6(&reports),
            "table7" => tables::table7(&reports),
            "figures" => format!(
                "{}{}",
                tables::figures_8_9(&reports),
                tables::figure_10(&reports)
            ),
            "compare" => tables::paper_comparison(&reports),
            "sweep" => {
                tables::length_sweep(&["lion", "bbtas", "dk27", "shiftreg", "train11", "ex3"], 3)
            }
            other => {
                eprintln!("unknown table id: {other}");
                continue;
            }
        };
        println!("{text}");
    }
}
