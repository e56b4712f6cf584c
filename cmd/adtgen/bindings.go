package main

// Typed-binding generation: the Go analogue of the paper's protoc plugin
// output (Sec. V-D: "our custom protobuf plugin automatically generates
// introspection code", and Sec. I: "we implement a simple gRPC server with
// minimal code modifications thanks to the automatic code generators we
// write"). For every message the generator emits a typed builder (over the
// dynamic message) and a typed zero-copy view (over the shared-region
// object); for every service it emits a host-side interface with a Register
// function and a typed client.

import (
	"fmt"
	"sort"
	"strings"

	"dpurpc/internal/adt"
	"dpurpc/internal/protodesc"
)

// goName converts a proto identifier (snake_case or lowerCamel) to an
// exported Go name.
func goName(s string) string {
	parts := strings.FieldsFunc(s, func(r rune) bool { return r == '_' || r == '.' || r == '-' })
	var sb strings.Builder
	for _, p := range parts {
		if p == "" {
			continue
		}
		sb.WriteString(strings.ToUpper(p[:1]) + p[1:])
	}
	return sb.String()
}

// typeName converts a fully-qualified message name to the generated Go type
// name: the package prefix is stripped, nesting becomes underscores.
func typeName(pkg, fq string) string {
	rest := strings.TrimPrefix(fq, pkg+".")
	return strings.ReplaceAll(rest, ".", "_")
}

// scalarGoType maps a field kind to the builder-side Go type.
func scalarGoType(k protodesc.Kind) string {
	switch k {
	case protodesc.KindBool:
		return "bool"
	case protodesc.KindInt32, protodesc.KindSint32, protodesc.KindSfixed32, protodesc.KindEnum:
		return "int32"
	case protodesc.KindUint32, protodesc.KindFixed32:
		return "uint32"
	case protodesc.KindInt64, protodesc.KindSint64, protodesc.KindSfixed64:
		return "int64"
	case protodesc.KindUint64, protodesc.KindFixed64:
		return "uint64"
	case protodesc.KindFloat:
		return "float32"
	case protodesc.KindDouble:
		return "float64"
	}
	return ""
}

// setterMethod maps a field kind to the protomsg setter.
func setterMethod(k protodesc.Kind) string {
	switch k {
	case protodesc.KindBool:
		return "SetBool"
	case protodesc.KindInt32, protodesc.KindSint32, protodesc.KindSfixed32:
		return "SetInt32"
	case protodesc.KindUint32, protodesc.KindFixed32:
		return "SetUint32"
	case protodesc.KindInt64, protodesc.KindSint64, protodesc.KindSfixed64:
		return "SetInt64"
	case protodesc.KindUint64, protodesc.KindFixed64:
		return "SetUint64"
	case protodesc.KindFloat:
		return "SetFloat"
	case protodesc.KindDouble:
		return "SetDouble"
	case protodesc.KindEnum:
		return "SetEnum"
	}
	return ""
}

// getterMethod maps a field kind to the protomsg getter.
func getterMethod(k protodesc.Kind) string {
	switch k {
	case protodesc.KindBool:
		return "Bool"
	case protodesc.KindInt32, protodesc.KindSint32, protodesc.KindSfixed32, protodesc.KindEnum:
		return "Int32"
	case protodesc.KindUint32, protodesc.KindFixed32:
		return "Uint32"
	case protodesc.KindInt64, protodesc.KindSint64, protodesc.KindSfixed64:
		return "Int64"
	case protodesc.KindUint64, protodesc.KindFixed64:
		return "Uint64"
	case protodesc.KindFloat:
		return "Float"
	case protodesc.KindDouble:
		return "Double"
	}
	return ""
}

// viewGetter maps a field kind to the abi.View accessor for scalars.
func viewGetter(k protodesc.Kind) string {
	switch k {
	case protodesc.KindBool:
		return "BoolName"
	case protodesc.KindInt32, protodesc.KindSint32, protodesc.KindSfixed32, protodesc.KindEnum:
		return "I32Name"
	case protodesc.KindUint32, protodesc.KindFixed32:
		return "U32Name"
	case protodesc.KindInt64, protodesc.KindSint64, protodesc.KindSfixed64:
		return "I64Name"
	case protodesc.KindUint64, protodesc.KindFixed64:
		return "U64Name"
	case protodesc.KindFloat:
		return "F32Name"
	case protodesc.KindDouble:
		return "F64Name"
	}
	return ""
}

// bitsExpr renders the raw-bits conversion used by AppendNum for a typed
// value expression.
func bitsExpr(k protodesc.Kind, v string) string {
	switch k {
	case protodesc.KindBool:
		return fmt.Sprintf("boolBits(%s)", v)
	case protodesc.KindFloat:
		return fmt.Sprintf("uint64(math.Float32bits(%s))", v)
	case protodesc.KindDouble:
		return fmt.Sprintf("math.Float64bits(%s)", v)
	case protodesc.KindInt32, protodesc.KindSint32, protodesc.KindSfixed32, protodesc.KindEnum:
		return fmt.Sprintf("uint64(uint32(%s))", v)
	case protodesc.KindUint32, protodesc.KindFixed32:
		return fmt.Sprintf("uint64(%s)", v)
	case protodesc.KindInt64, protodesc.KindSint64, protodesc.KindSfixed64:
		return fmt.Sprintf("uint64(%s)", v)
	default:
		return v
	}
}

// fromBitsExpr renders the inverse conversion from raw bits.
func fromBitsExpr(k protodesc.Kind, v string) string {
	switch k {
	case protodesc.KindBool:
		return fmt.Sprintf("%s != 0", v)
	case protodesc.KindFloat:
		return fmt.Sprintf("math.Float32frombits(uint32(%s))", v)
	case protodesc.KindDouble:
		return fmt.Sprintf("math.Float64frombits(%s)", v)
	case protodesc.KindInt32, protodesc.KindSint32, protodesc.KindSfixed32, protodesc.KindEnum:
		return fmt.Sprintf("int32(uint32(%s))", v)
	case protodesc.KindUint32, protodesc.KindFixed32:
		return fmt.Sprintf("uint32(%s)", v)
	case protodesc.KindInt64, protodesc.KindSint64, protodesc.KindSfixed64:
		return fmt.Sprintf("int64(%s)", v)
	default:
		return v
	}
}

// genBindings renders the typed-bindings file.
func genBindings(pkg, base, src string, file *protodesc.File, table *adt.Table) (string, error) {
	var sb strings.Builder

	fmt.Fprintf(&sb, "// Code generated by adtgen from %s.proto; DO NOT EDIT.\n\n", base)
	fmt.Fprintf(&sb, "// Package %s provides typed bindings for the %s schema:\n", pkg, base)
	sb.WriteString("// builders over dynamic messages, zero-copy views over shared-region\n")
	sb.WriteString("// objects, and service interfaces for the offloaded stack.\n")
	fmt.Fprintf(&sb, "package %s\n\n", pkg)

	var body strings.Builder

	// Schema loader.
	fmt.Fprintf(&body, "// SchemaSource is the embedded proto3 source.\nconst SchemaSource = %q\n\n", src)
	fmt.Fprintf(&body, "// SchemaFingerprint pins the ADT at generation time.\nconst SchemaFingerprint uint64 = 0x%016x\n\n", table.Fingerprint())
	body.WriteString(`// LoadSchema parses the embedded source and verifies the fingerprint.
func LoadSchema() (*dpurpc.Schema, error) {
	s, err := dpurpc.ParseSchema("` + base + `.proto", SchemaSource)
	if err != nil {
		return nil, err
	}
	if got := s.Table.Fingerprint(); got != SchemaFingerprint {
		return nil, fmt.Errorf("` + base + `: ADT fingerprint drift: %016x", got)
	}
	return s, nil
}

func boolBits(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

`)

	// Enums: typed constants.
	enums := append([]*protodesc.Enum(nil), file.Enums...)
	sort.Slice(enums, func(i, j int) bool { return enums[i].Name < enums[j].Name })
	for _, e := range enums {
		tn := typeName(file.Package, e.Name)
		fmt.Fprintf(&body, "// %s is the %s enum.\ntype %s = int32\n\nconst (\n", tn, e.Name, tn)
		for _, v := range e.Values {
			fmt.Fprintf(&body, "\t%s_%s %s = %d\n", tn, v.Name, tn, v.Number)
		}
		body.WriteString(")\n\n")
	}

	// Messages: builder + view types.
	msgs := append([]*protodesc.Message(nil), file.Messages...)
	sort.Slice(msgs, func(i, j int) bool { return msgs[i].Name < msgs[j].Name })
	for _, m := range msgs {
		tn := typeName(file.Package, m.Name)
		fmt.Fprintf(&body, "// %s is a typed builder over a dynamic %s message.\n", tn, m.Name)
		fmt.Fprintf(&body, "type %s struct{ M *dpurpc.Message }\n\n", tn)
		fmt.Fprintf(&body, "// New%s returns an empty %s.\nfunc New%s(s *dpurpc.Schema) %s {\n\treturn %s{M: s.NewMessage(%q)}\n}\n\n",
			tn, m.Name, tn, tn, tn, m.Name)
		fmt.Fprintf(&body, "// %sView is a typed zero-copy view of a deserialized %s.\n", tn, m.Name)
		fmt.Fprintf(&body, "type %sView struct{ V dpurpc.View }\n\n", tn)

		for _, f := range m.Fields {
			fn := goName(f.Name)
			switch {
			case f.Repeated && f.Kind.IsPackable():
				gt := scalarGoType(f.Kind)
				fmt.Fprintf(&body, "// Add%s appends to the repeated %s field.\nfunc (x %s) Add%s(v %s) { x.M.AppendNum(%q, %s) }\n\n",
					fn, f.Name, tn, fn, gt, f.Name, bitsExpr(f.Kind, "v"))
				fmt.Fprintf(&body, "// %s returns the repeated %s field.\nfunc (x %s) %s() []%s {\n\traw := x.M.Nums(%q)\n\tout := make([]%s, len(raw))\n\tfor i, b := range raw {\n\t\tout[i] = %s\n\t}\n\treturn out\n}\n\n",
					fn, f.Name, tn, fn, gt, f.Name, gt, fromBitsExpr(f.Kind, "b"))
				// View side.
				fmt.Fprintf(&body, "// %sLen returns the element count of %s.\nfunc (x %sView) %sLen() int { return x.V.LenName(%q) }\n\n",
					fn, f.Name, tn, fn, f.Name)
				fmt.Fprintf(&body, "// %sAt returns element i of %s.\nfunc (x %sView) %sAt(i int) %s {\n\tb := x.V.NumAtName(%q, i)\n\t_ = b\n\treturn %s\n}\n\n",
					fn, f.Name, tn, fn, gt, f.Name, fromBitsExpr(f.Kind, "b"))
			case f.Repeated && f.Kind == protodesc.KindString:
				fmt.Fprintf(&body, "// Add%s appends to the repeated %s field.\nfunc (x %s) Add%s(v string) error { return x.M.AppendString(%q, v) }\n\n",
					fn, f.Name, tn, fn, f.Name)
				fmt.Fprintf(&body, "// %sLen returns the element count of %s.\nfunc (x %sView) %sLen() int { return x.V.LenName(%q) }\n\n",
					fn, f.Name, tn, fn, f.Name)
				fmt.Fprintf(&body, "// %sAt returns element i of %s (zero-copy).\nfunc (x %sView) %sAt(i int) []byte { return x.V.StrAtName(%q, i) }\n\n",
					fn, f.Name, tn, fn, f.Name)
			case f.Repeated && f.Kind == protodesc.KindBytes:
				fmt.Fprintf(&body, "// Add%s appends v to the repeated %s field by reference: v must stay\n// unchanged while the message is read (dpurpc.Message.SetBytes).\nfunc (x %s) Add%s(v []byte) error { return x.M.AppendBytes(%q, v) }\n\n",
					fn, f.Name, tn, fn, f.Name)
				fmt.Fprintf(&body, "// %sLen returns the element count of %s.\nfunc (x %sView) %sLen() int { return x.V.LenName(%q) }\n\n",
					fn, f.Name, tn, fn, f.Name)
				fmt.Fprintf(&body, "// %sAt returns element i of %s (zero-copy).\nfunc (x %sView) %sAt(i int) []byte { return x.V.StrAtName(%q, i) }\n\n",
					fn, f.Name, tn, fn, f.Name)
			case f.Repeated: // message
				ct := typeName(file.Package, f.Message.Name)
				fmt.Fprintf(&body, "// Add%s appends a child to the repeated %s field.\nfunc (x %s) Add%s(v %s) error { return x.M.AppendMessage(%q, v.M) }\n\n",
					fn, f.Name, tn, fn, ct, f.Name)
				fmt.Fprintf(&body, "// %sLen returns the element count of %s.\nfunc (x %sView) %sLen() int { return x.V.LenName(%q) }\n\n",
					fn, f.Name, tn, fn, f.Name)
				fmt.Fprintf(&body, "// %sAt returns element i of %s as a zero-copy view.\nfunc (x %sView) %sAt(i int) (%sView, bool) {\n\tv, ok := x.V.MsgAtName(%q, i)\n\treturn %sView{V: v}, ok\n}\n\n",
					fn, f.Name, tn, fn, ct, f.Name, ct)
			case f.Kind == protodesc.KindString:
				fmt.Fprintf(&body, "// Set%s sets the %s field (must be valid UTF-8).\nfunc (x %s) Set%s(v string) error { return x.M.SetString(%q, v) }\n\n",
					fn, f.Name, tn, fn, f.Name)
				fmt.Fprintf(&body, "// %s returns the %s field.\nfunc (x %s) %s() string { return x.M.GetString(%q) }\n\n",
					fn, f.Name, tn, fn, f.Name)
				fmt.Fprintf(&body, "// %s returns the %s field (zero-copy bytes).\nfunc (x %sView) %s() []byte { return x.V.StrName(%q) }\n\n",
					fn, f.Name, tn, fn, f.Name)
			case f.Kind == protodesc.KindBytes:
				fmt.Fprintf(&body, "// Set%s sets the %s field to v by reference: v must stay unchanged\n// while the message is read (dpurpc.Message.SetBytes).\nfunc (x %s) Set%s(v []byte) error { return x.M.SetBytes(%q, v) }\n\n",
					fn, f.Name, tn, fn, f.Name)
				fmt.Fprintf(&body, "// %s returns the %s field.\nfunc (x %s) %s() []byte { return x.M.Bytes(%q) }\n\n",
					fn, f.Name, tn, fn, f.Name)
				fmt.Fprintf(&body, "// %s returns the %s field (zero-copy).\nfunc (x %sView) %s() []byte { return x.V.StrName(%q) }\n\n",
					fn, f.Name, tn, fn, f.Name)
			case f.Kind == protodesc.KindMessage:
				ct := typeName(file.Package, f.Message.Name)
				fmt.Fprintf(&body, "// Set%s sets the %s field.\nfunc (x %s) Set%s(v %s) error { return x.M.SetMessage(%q, v.M) }\n\n",
					fn, f.Name, tn, fn, ct, f.Name)
				fmt.Fprintf(&body, "// Mutable%s returns the %s field, allocating it if unset.\nfunc (x %s) Mutable%s() %s { return %s{M: x.M.MutableMsg(%q)} }\n\n",
					fn, f.Name, tn, fn, ct, ct, f.Name)
				fmt.Fprintf(&body, "// %s returns the %s field (zero %s if unset).\nfunc (x %s) %s() %s { return %s{M: x.M.Msg(%q)} }\n\n",
					fn, f.Name, ct, tn, fn, ct, ct, f.Name)
				fmt.Fprintf(&body, "// %s returns the %s field as a zero-copy view.\nfunc (x %sView) %s() (%sView, bool) {\n\tv, ok := x.V.MsgName(%q)\n\treturn %sView{V: v}, ok\n}\n\n",
					fn, f.Name, tn, fn, ct, f.Name, ct)
			default: // singular scalar / enum
				gt := scalarGoType(f.Kind)
				if f.Kind == protodesc.KindEnum {
					gt = typeName(file.Package, f.Enum.Name)
				}
				set, get := setterMethod(f.Kind), getterMethod(f.Kind)
				fmt.Fprintf(&body, "// Set%s sets the %s field.\nfunc (x %s) Set%s(v %s) { x.M.%s(%q, v) }\n\n",
					fn, f.Name, tn, fn, gt, set, f.Name)
				castOpen, castClose := "", ""
				if f.Kind == protodesc.KindEnum {
					castOpen, castClose = gt+"(", ")"
				}
				fmt.Fprintf(&body, "// %s returns the %s field.\nfunc (x %s) %s() %s { return %sx.M.%s(%q)%s }\n\n",
					fn, f.Name, tn, fn, gt, castOpen, get, f.Name, castClose)
				vg := viewGetter(f.Kind)
				fmt.Fprintf(&body, "// %s returns the %s field.\nfunc (x %sView) %s() %s { return %sx.V.%s(%q)%s }\n\n",
					fn, f.Name, tn, fn, gt, castOpen, vg, f.Name, castClose)
			}
		}
	}

	// Services: host interface + register + typed client.
	for _, svc := range file.Services {
		sn := typeName(file.Package, svc.Name)
		fmt.Fprintf(&body, "// %sServer is the host-side implementation of %s. Handlers receive\n// zero-copy request views and return (response, status); status 0 is OK\n// and a zero response is sent as an empty message.\n", sn, svc.Name)
		fmt.Fprintf(&body, "type %sServer interface {\n", sn)
		for _, m := range svc.Methods {
			in := typeName(file.Package, m.Input.Name)
			out := typeName(file.Package, m.Output.Name)
			fmt.Fprintf(&body, "\t%s(req %sView) (%s, uint16)\n", m.Name, in, out)
		}
		body.WriteString("}\n\n")
		fmt.Fprintf(&body, "// Register%s adapts srv for dpurpc.NewOffloadedStack / NewBaselineStack.\nfunc Register%s(srv %sServer) map[string]dpurpc.Impl {\n\treturn map[string]dpurpc.Impl{\n\t\t%q: {\n", sn, sn, sn, svc.Name)
		for _, m := range svc.Methods {
			in := typeName(file.Package, m.Input.Name)
			fmt.Fprintf(&body, "\t\t\t%q: func(req dpurpc.View) (*dpurpc.Message, uint16) {\n\t\t\t\tout, status := srv.%s(%sView{V: req})\n\t\t\t\treturn out.M, status\n\t\t\t},\n",
				m.Name, m.Name, in)
		}
		body.WriteString("\t\t},\n\t}\n}\n\n")

		fmt.Fprintf(&body, "// %sClient is a typed client for %s.\ntype %sClient struct {\n\tC *dpurpc.Client\n\tS *dpurpc.Schema\n}\n\n", sn, svc.Name, sn)
		for _, m := range svc.Methods {
			in := typeName(file.Package, m.Input.Name)
			out := typeName(file.Package, m.Output.Name)
			fmt.Fprintf(&body, "// %s calls %s.%s.\nfunc (c %sClient) %s(req %s) (%s, error) {\n\tresp, err := c.C.Call(c.S, %q, %q, req.M)\n\tif err != nil {\n\t\treturn %s{}, err\n\t}\n\treturn %s{M: resp}, nil\n}\n\n",
				m.Name, svc.Name, m.Name, sn, m.Name, in, out, svc.Name, m.Name, out, out)
		}
	}

	// Imports (math only when the generated body uses it).
	sb.WriteString("import (\n\t\"fmt\"\n")
	if strings.Contains(body.String(), "math.") {
		sb.WriteString("\t\"math\"\n")
	}
	sb.WriteString("\n\t\"dpurpc\"\n)\n\n")
	sb.WriteString(body.String())
	return sb.String(), nil
}
