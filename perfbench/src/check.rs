//! Ground-truth checking of line-oriented outputs.
//!
//! Every page (or query page) owns one slot of expected output; a slot
//! lists every acceptable rendering of that page. Undrifted pages have
//! exactly one (the generator truth); a drifted page has one per
//! outcome the one-page library path allows. A line that is not in its
//! own page's slot — corrupted bytes, a wrong position, another page's
//! line — is a divergence, and so is a missing or extra line.

/// Check `out` line by line against `expected` (one slot per page, in
/// page order). Returns one result per page.
pub fn check_lines(out: &str, expected: &[Vec<String>]) -> Vec<Result<(), String>> {
    let lines: Vec<&str> = out.lines().collect();
    let mut results: Vec<Result<(), String>> = expected
        .iter()
        .enumerate()
        .map(|(i, slot)| match lines.get(i) {
            Some(line) if slot.iter().any(|e| e == line) => Ok(()),
            Some(line) => Err(format!("page {i}: unexpected line {line}")),
            None => Err(format!("page {i}: no output line")),
        })
        .collect();
    if lines.len() > expected.len() {
        if let Some(last) = results.last_mut() {
            *last = Err(format!(
                "{} extra output lines after page {}",
                lines.len() - expected.len(),
                expected.len() - 1
            ));
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use rextract_corpus::sink::{error_line, tuple_line};

    fn tuple(source: &str, offsets: (usize, usize), field: &str) -> String {
        tuple_line(source, "search", 2, 1, &[offsets], &[field])
    }

    fn expected() -> Vec<Vec<String>> {
        vec![
            vec![tuple("p0", (10, 40), "<input type=\"text\">")],
            vec![tuple("p1", (12, 42), "<input type=\"text\">")],
            // A drifted page: the library path allows a tuple from one
            // wrapper or a clean no-match line from the other.
            vec![
                tuple("p2", (5, 35), "<td>"),
                error_line("p2", "extract empty (listing): no match"),
            ],
        ]
    }

    fn render(lines: &[String]) -> String {
        lines.iter().map(|l| format!("{l}\n")).collect()
    }

    fn good() -> Vec<String> {
        vec![
            expected()[0][0].clone(),
            expected()[1][0].clone(),
            expected()[2][1].clone(),
        ]
    }

    #[test]
    fn matching_output_passes() {
        assert!(check_lines(&render(&good()), &expected())
            .iter()
            .all(Result::is_ok));
    }

    #[test]
    fn corrupted_tuple_is_detected() {
        let mut lines = good();
        lines[1] = lines[1].replace("text", "tExt");
        let r = check_lines(&render(&lines), &expected());
        assert!(r[0].is_ok() && r[1].is_err() && r[2].is_ok());
    }

    #[test]
    fn wrong_position_is_detected() {
        let mut lines = good();
        lines[0] = tuple("p0", (11, 41), "<input type=\"text\">");
        let r = check_lines(&render(&lines), &expected());
        assert!(r[0].is_err() && r[1].is_ok());
    }

    #[test]
    fn reordered_lines_are_detected() {
        let mut lines = good();
        lines.swap(0, 1);
        let r = check_lines(&render(&lines), &expected());
        assert!(r[0].is_err() && r[1].is_err() && r[2].is_ok());
    }

    #[test]
    fn missing_and_extra_lines_are_detected() {
        let mut lines = good();
        lines.pop();
        let r = check_lines(&render(&lines), &expected());
        assert!(r[2].is_err());
        let mut lines = good();
        lines.push(lines[0].clone());
        let r = check_lines(&render(&lines), &expected());
        assert!(r[2].is_err());
    }
}
