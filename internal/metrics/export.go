package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// formatValue renders a sample value the way the Prometheus text format
// expects.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value for the text exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// labelString renders {k="v",...} with extra appended last, or "" when empty.
func labelString(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = fmt.Sprintf(`%s="%s"`, l.Key, escapeLabel(l.Value))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus emits every live instrument in the Prometheus text
// exposition format, grouped by metric name with TYPE (and HELP, when set)
// headers. Gauge functions are evaluated at export time.
func (r *Registry) WritePrometheus(w io.Writer) error {
	byName := map[string][]*instrument{}
	for _, ins := range r.order {
		if ins.removed {
			continue
		}
		byName[ins.name] = append(byName[ins.name], ins)
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)

	for _, name := range names {
		if help := r.help[name]; help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
				return err
			}
		}
		series := byName[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, series[0].kind); err != nil {
			return err
		}
		for _, ins := range series {
			var err error
			switch ins.kind {
			case kindCounter:
				_, err = fmt.Fprintf(w, "%s%s %s\n", name, labelString(ins.labels), formatValue(ins.counter.Value()))
			case kindGauge:
				_, err = fmt.Fprintf(w, "%s%s %s\n", name, labelString(ins.labels), formatValue(ins.gauge.Value()))
			case kindHistogram:
				err = writeHistogram(w, name, ins)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, ins *instrument) error {
	h := ins.hist
	cum := h.Cumulative()
	for i, bound := range h.bounds {
		le := formatValue(bound)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, labelString(ins.labels, L("le", le)), cum[i]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
		name, labelString(ins.labels, L("le", "+Inf")), cum[len(cum)-1]); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labelString(ins.labels), formatValue(h.sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labelString(ins.labels), h.count)
	return err
}
