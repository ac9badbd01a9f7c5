/**
 * @file
 * Implementation of the trace differ.
 */

#include "sim/trace_diff.hh"

#include <algorithm>

namespace oscar
{

std::vector<std::string>
splitTraceLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string::npos) {
            lines.push_back(text.substr(start));
            break;
        }
        lines.push_back(text.substr(start, end - start));
        start = end + 1;
    }
    return lines;
}

TraceDiffReport
diffTraceLines(const std::vector<std::string> &left,
               const std::vector<std::string> &right,
               unsigned context_lines)
{
    TraceDiffReport report;
    report.leftLineCount = left.size();
    report.rightLineCount = right.size();

    const std::size_t common = std::min(left.size(), right.size());
    std::size_t i = 0;
    while (i < common && left[i] == right[i])
        ++i;

    if (i == left.size() && i == right.size()) {
        report.identical = true;
        return report;
    }

    report.divergenceLine = i;
    if (i < left.size())
        report.left = left[i];
    if (i < right.size())
        report.right = right[i];

    const std::size_t first =
        i > context_lines ? i - context_lines : 0;
    for (std::size_t c = first; c < i; ++c)
        report.context.push_back(left[c]);
    return report;
}

TraceDiffReport
diffTraceText(const std::string &left, const std::string &right,
              unsigned context_lines)
{
    return diffTraceLines(splitTraceLines(left), splitTraceLines(right),
                          context_lines);
}

std::string
TraceDiffReport::format() const
{
    if (identical) {
        return "traces identical (" + std::to_string(leftLineCount) +
               " lines)\n";
    }
    std::string out;
    out += "traces diverge at line " +
           std::to_string(divergenceLine + 1) + " (left " +
           std::to_string(leftLineCount) + " lines, right " +
           std::to_string(rightLineCount) + " lines)\n";
    for (const std::string &line : context)
        out += "  = " + line + "\n";
    out += "  < " + (left.empty() ? "<end of trace>" : left) + "\n";
    out += "  > " + (right.empty() ? "<end of trace>" : right) + "\n";
    return out;
}

} // namespace oscar
