package telemetry

import "strings"

// LabelName renders a metric family name plus label key/value pairs
// into the single-string name convention the registry stores and the
// promexp exporter understands: family{k1="v1",k2="v2"} with keys
// sorted, so equal label sets always map to the same registry entry.
// Values are escaped for the Prometheus text exposition format. kv
// must alternate key, value; a trailing odd key is ignored.
//
// Labeled series coexist with plain dotted names in one registry:
// exporters that don't understand labels (the JSONL dump, expvar)
// simply show the full string.
func LabelName(family string, kv ...string) string {
	if len(kv) < 2 {
		return family
	}
	// Label sets are a handful of pairs: they sort by insertion in a
	// stack array, and the name is built in one allocation.
	type pair struct{ k, v string }
	var buf [8]pair
	pairs := buf[:0]
	size := len(family) + 2
	for i := 0; i+1 < len(kv); i += 2 {
		p := pair{sanitizeLabelKey(kv[i]), escapeLabelValue(kv[i+1])}
		size += len(p.k) + len(p.v) + 4
		j := len(pairs)
		pairs = append(pairs, p)
		for ; j > 0 && pairs[j-1].k > p.k; j-- {
			pairs[j] = pairs[j-1]
		}
		pairs[j] = p
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString(family)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(p.v)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// SplitLabels splits a registry name produced by LabelName back into
// the family and the rendered label block (including braces). A name
// without labels returns the name itself and "".
func SplitLabels(name string) (family, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i:]
}

// sanitizeLabelKey forces a string into the Prometheus label-name
// alphabet [a-zA-Z_][a-zA-Z0-9_]*. A key already in it is returned
// as is.
func sanitizeLabelKey(k string) string {
	if k == "" {
		return "_"
	}
	var fixed []byte
	for i := 0; i < len(k); i++ {
		c := k[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			if fixed == nil {
				fixed = []byte(k)
			}
			fixed[i] = '_'
		}
	}
	if fixed == nil {
		return k
	}
	return string(fixed)
}

// escapeLabelValue escapes a label value for the text exposition
// format: backslash, double quote and newline.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}
