package protomsg

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"dpurpc/internal/protodesc"
)

// Text renders the message in a protobuf text-format-like syntax, for
// debugging and logs. Unset fields are omitted; nested messages are
// indented; enum values print symbolically when the descriptor knows them.
func (m *Message) Text() string {
	var sb strings.Builder
	m.writeText(&sb, 0)
	return sb.String()
}

// String implements fmt.Stringer with a single-line summary.
func (m *Message) String() string {
	return fmt.Sprintf("%s{%s}", m.desc.Name,
		strings.TrimSuffix(strings.ReplaceAll(m.Text(), "\n", " "), " "))
}

func indent(sb *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
}

func (m *Message) writeText(sb *strings.Builder, depth int) {
	for i, f := range m.desc.Fields {
		if !m.values[i].set {
			continue
		}
		v := &m.values[i]
		switch {
		case f.Repeated && f.Kind == protodesc.KindMessage:
			for _, child := range v.msgs {
				indent(sb, depth)
				sb.WriteString(f.Name)
				sb.WriteString(" {\n")
				child.writeText(sb, depth+1)
				indent(sb, depth)
				sb.WriteString("}\n")
			}
		case f.Repeated && (f.Kind == protodesc.KindString || f.Kind == protodesc.KindBytes):
			for _, s := range v.strs {
				indent(sb, depth)
				fmt.Fprintf(sb, "%s: %s\n", f.Name, quoteValue(f.Kind, s))
			}
		case f.Repeated:
			for _, bits := range v.nums {
				indent(sb, depth)
				fmt.Fprintf(sb, "%s: %s\n", f.Name, scalarText(f, bits))
			}
		case f.Kind == protodesc.KindMessage:
			if v.msg == nil {
				continue
			}
			indent(sb, depth)
			sb.WriteString(f.Name)
			sb.WriteString(" {\n")
			v.msg.writeText(sb, depth+1)
			indent(sb, depth)
			sb.WriteString("}\n")
		case f.Kind == protodesc.KindString || f.Kind == protodesc.KindBytes:
			indent(sb, depth)
			fmt.Fprintf(sb, "%s: %s\n", f.Name, quoteValue(f.Kind, v.str))
		default:
			indent(sb, depth)
			fmt.Fprintf(sb, "%s: %s\n", f.Name, scalarText(f, v.num))
		}
	}
}

func quoteValue(k protodesc.Kind, b []byte) string {
	if k == protodesc.KindString {
		return strconv.Quote(string(b))
	}
	// bytes: hex escape every byte, like protobuf's text format for
	// non-printable content.
	var sb strings.Builder
	sb.WriteByte('"')
	for _, c := range b {
		if c >= 0x20 && c < 0x7f && c != '"' && c != '\\' {
			sb.WriteByte(c)
		} else {
			fmt.Fprintf(&sb, "\\x%02x", c)
		}
	}
	sb.WriteByte('"')
	return sb.String()
}

func scalarText(f *protodesc.Field, bits uint64) string {
	switch f.Kind {
	case protodesc.KindBool:
		if bits != 0 {
			return "true"
		}
		return "false"
	case protodesc.KindFloat:
		return strconv.FormatFloat(float64(math.Float32frombits(uint32(bits))), 'g', -1, 32)
	case protodesc.KindDouble:
		return strconv.FormatFloat(math.Float64frombits(bits), 'g', -1, 64)
	case protodesc.KindEnum:
		n := int32(uint32(bits))
		if f.Enum != nil {
			if name := f.Enum.ValueName(n); name != "" {
				return name
			}
		}
		return strconv.FormatInt(int64(n), 10)
	case protodesc.KindInt32, protodesc.KindSint32, protodesc.KindSfixed32:
		return strconv.FormatInt(int64(int32(uint32(bits))), 10)
	case protodesc.KindInt64, protodesc.KindSint64, protodesc.KindSfixed64:
		return strconv.FormatInt(int64(bits), 10)
	case protodesc.KindUint32, protodesc.KindFixed32:
		return strconv.FormatUint(uint64(uint32(bits)), 10)
	default:
		return strconv.FormatUint(bits, 10)
	}
}
