//! Console rendering helpers: paper-vs-measured rows and simple tables.

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("━━━ {title} ━━━");
}

/// Prints one paper-vs-measured comparison line for a percentage or
/// scalar value.
pub fn compare(label: &str, paper: f64, measured: f64, unit: &str) {
    let delta = measured - paper;
    println!("  {label:<46} paper {paper:>10.1}{unit}   measured {measured:>10.1}{unit}   Δ {delta:>+8.1}");
}

/// Prints one paper-vs-measured comparison for integer counts.
pub fn compare_count(label: &str, paper: usize, measured: usize) {
    println!("  {label:<46} paper {paper:>10}   measured {measured:>10}");
}

/// Prints a plain measured-only line.
pub fn measured(label: &str, value: f64, unit: &str) {
    println!("  {label:<46} measured {value:>10.2}{unit}");
}

/// Prints a ranked list of (name, unique cookies, share %) rows
/// (figures 2 and 8).
pub fn ranked_rows(rows: &[(String, usize, f64)]) {
    for (i, (name, count, share_pct)) in rows.iter().enumerate() {
        let rank = i + 1;
        println!("  {rank:>3}. {name:<40} {count:>6} unique cookies   {share_pct:>6.2}%");
    }
}

/// Renders a crude horizontal bar for console figures.
pub fn bar(label: &str, value: f64, max: f64, width: usize) {
    let filled = if max > 0.0 {
        ((value / max) * width as f64).round() as usize
    } else {
        0
    };
    let bar: String = "█".repeat(filled.min(width));
    println!("  {label:<28} {bar:<width$} {value:.1}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_does_not_panic() {
        header("Test");
        compare("x", 1.0, 2.0, "%");
        compare_count("y", 10, 12);
        measured("z", 3.3, "ms");
        ranked_rows(&[("googletagmanager.com".to_string(), 100, 3.3)]);
        bar("overwriting", 31.5, 100.0, 40);
        bar("zero-max", 1.0, 0.0, 40);
    }
}
