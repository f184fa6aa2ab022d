// Minimal fixed-width table printer used by the benchmark harness to emit
// the rows the paper's tables and figures report.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace geo {

/// Collects rows of string cells and prints them with aligned columns.
class Table {
public:
    explicit Table(std::vector<std::string> header);

    /// Append one row; must have the same arity as the header.
    void addRow(std::vector<std::string> cells);

    /// Format a double with `precision` significant digits (not decimals),
    /// trimming trailing zeros; a value with more integer digits than that
    /// prints in scientific notation, so round large values instead.
    static std::string num(double value, int precision = 4);

    /// Print with column alignment and a separator under the header.
    void print(std::ostream& os) const;

    [[nodiscard]] std::size_t rows() const { return rows_.size(); }

private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

}  // namespace geo
