#include "common/report.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"
#include "common/text_file.hh"

namespace hnoc
{

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    if (headers_.empty())
        fatal("Table: need at least one column");
}

void
Table::row(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size())
        fatal("Table: row has %zu cells, expected %zu", cells.size(),
              headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
Table::num(double v, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

std::string
Table::text() const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &r : rows_)
        for (std::size_t c = 0; c < r.size(); ++c)
            widths[c] = std::max(widths[c], r[c].size());

    std::string out;
    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            out += cells[c];
            out.append(widths[c] - cells[c].size() + 2, ' ');
        }
        out += '\n';
    };
    emit(headers_);
    for (const auto &r : rows_)
        emit(r);
    return out;
}

namespace
{

std::string
csvEscape(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::string
Table::csv() const
{
    std::string out;
    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            if (c)
                out += ',';
            out += csvEscape(cells[c]);
        }
        out += '\n';
    };
    emit(headers_);
    for (const auto &r : rows_)
        emit(r);
    return out;
}

bool
Table::writeCsv(const std::string &path) const
{
    return writeTextFile(path, csv(), "HNOC_CSV_DIR");
}

std::string
heatMapCsv(const std::vector<double> &values, int cols, int decimals)
{
    std::string out;
    if (values.empty() || cols <= 0)
        return out;
    char buf[64];
    int rows = (static_cast<int>(values.size()) + cols - 1) / cols;
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            auto i = static_cast<std::size_t>(r * cols + c);
            if (i >= values.size())
                break;
            if (c)
                out += ',';
            std::snprintf(buf, sizeof(buf), "%.*f", decimals,
                          values[i]);
            out += buf;
        }
        out += '\n';
    }
    return out;
}

bool
writeHeatMapCsv(const std::string &path, const std::vector<double> &values,
                int cols, int decimals)
{
    return writeTextFile(path, heatMapCsv(values, cols, decimals),
                         "HNOC_CSV_DIR");
}

} // namespace hnoc
