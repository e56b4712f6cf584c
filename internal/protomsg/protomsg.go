// Package protomsg implements dynamic protobuf messages driven by
// descriptors: typed accessors, a deterministic serializer, and the standard
// one-copy deserializer.
//
// In the paper's terms this package is the ordinary protobuf runtime: the
// xRPC client uses Marshal to produce wire bytes, and Unmarshal is the
// conventional deserialization path that allocates the object graph on the
// heap (the behaviour the offload is designed to remove from the host). The
// offloaded path instead uses internal/deser, which decodes the same wire
// format directly into a shared arena.
package protomsg

import (
	"errors"
	"fmt"
	"math"

	"dpurpc/internal/protodesc"
	"dpurpc/internal/utf8x"
	"dpurpc/internal/wire"
)

// Errors returned by Unmarshal and the accessors.
var (
	ErrUnknownField = errors.New("protomsg: unknown field")
	ErrKindMismatch = errors.New("protomsg: accessor kind mismatch")
)

// value holds the contents of one field slot. Exactly one group of members
// is used depending on the field's kind and cardinality; set is the field's
// presence bit, kept in the slot so a message is two allocations, not three.
type value struct {
	set  bool
	num  uint64
	str  []byte
	msg  *Message
	nums []uint64
	strs [][]byte
	msgs []*Message
}

// Message is a dynamic protobuf message instance.
type Message struct {
	desc   *protodesc.Message
	values []value
}

// New returns an empty message of the given type.
func New(desc *protodesc.Message) *Message {
	return &Message{
		desc:   desc,
		values: make([]value, len(desc.Fields)),
	}
}

// Descriptor returns the message type descriptor.
func (m *Message) Descriptor() *protodesc.Message { return m.desc }

// Has reports whether the field was explicitly set (or decoded) since the
// message was created or cleared. For proto3 scalars this is the hasbit the
// paper's "bitfield storing field presence" refers to.
func (m *Message) Has(name string) bool {
	f := m.desc.FieldByName(name)
	return f != nil && m.values[f.Index].set
}

// Clear resets all fields to their zero state, retaining allocated capacity
// where possible.
func (m *Message) Clear() {
	for i := range m.values {
		m.values[i] = value{}
	}
}

func (m *Message) field(name string, kinds ...protodesc.Kind) (*protodesc.Field, error) {
	f := m.desc.FieldByName(name)
	if f == nil {
		return nil, fmt.Errorf("%w: %s.%s", ErrUnknownField, m.desc.Name, name)
	}
	for _, k := range kinds {
		if f.Kind == k {
			return f, nil
		}
	}
	return nil, fmt.Errorf("%w: %s.%s is %v", ErrKindMismatch, m.desc.Name, name, f.Kind)
}

// --- scalar setters -------------------------------------------------------

// SetBool sets a bool field.
func (m *Message) SetBool(name string, v bool) error {
	f, err := m.field(name, protodesc.KindBool)
	if err != nil {
		return err
	}
	var bits uint64
	if v {
		bits = 1
	}
	return m.setScalar(f, bits)
}

// SetUint32 sets a uint32 or fixed32 field.
func (m *Message) SetUint32(name string, v uint32) error {
	f, err := m.field(name, protodesc.KindUint32, protodesc.KindFixed32)
	if err != nil {
		return err
	}
	return m.setScalar(f, uint64(v))
}

// SetInt32 sets an int32, sint32, or sfixed32 field.
func (m *Message) SetInt32(name string, v int32) error {
	f, err := m.field(name, protodesc.KindInt32, protodesc.KindSint32, protodesc.KindSfixed32)
	if err != nil {
		return err
	}
	return m.setScalar(f, uint64(uint32(v)))
}

// SetUint64 sets a uint64 or fixed64 field.
func (m *Message) SetUint64(name string, v uint64) error {
	f, err := m.field(name, protodesc.KindUint64, protodesc.KindFixed64)
	if err != nil {
		return err
	}
	return m.setScalar(f, v)
}

// SetInt64 sets an int64, sint64, or sfixed64 field.
func (m *Message) SetInt64(name string, v int64) error {
	f, err := m.field(name, protodesc.KindInt64, protodesc.KindSint64, protodesc.KindSfixed64)
	if err != nil {
		return err
	}
	return m.setScalar(f, uint64(v))
}

// SetFloat sets a float field.
func (m *Message) SetFloat(name string, v float32) error {
	f, err := m.field(name, protodesc.KindFloat)
	if err != nil {
		return err
	}
	return m.setScalar(f, uint64(math.Float32bits(v)))
}

// SetDouble sets a double field.
func (m *Message) SetDouble(name string, v float64) error {
	f, err := m.field(name, protodesc.KindDouble)
	if err != nil {
		return err
	}
	return m.setScalar(f, math.Float64bits(v))
}

// SetEnum sets an enum field by number.
func (m *Message) SetEnum(name string, v int32) error {
	f, err := m.field(name, protodesc.KindEnum)
	if err != nil {
		return err
	}
	return m.setScalar(f, uint64(uint32(v)))
}

// SetString sets a string field. The value must be valid UTF-8.
func (m *Message) SetString(name, v string) error {
	f, err := m.field(name, protodesc.KindString)
	if err != nil {
		return err
	}
	if f.Repeated {
		return fmt.Errorf("%w: %s is repeated", ErrKindMismatch, name)
	}
	if !utf8x.ValidString(v) {
		return wire.ErrInvalidUTF8
	}
	m.values[f.Index].str = []byte(v)
	m.values[f.Index].set = true
	return nil
}

// SetBytes sets a bytes field to b by reference, as a generated Go protobuf
// struct's field assignment does: the message keeps b itself, not a copy, so
// b must stay unchanged for as long as the message is read. A handler that
// returns the message gives up the message and every buffer it references,
// and those bytes stay unchanged until the response has posted; it may
// therefore echo a request view's bytes (abi.View.StrName) without copying.
// Unmarshal, Clone and objconv.FromArena produce messages that own their
// bytes.
func (m *Message) SetBytes(name string, b []byte) error {
	f, err := m.field(name, protodesc.KindBytes)
	if err != nil {
		return err
	}
	if f.Repeated {
		return fmt.Errorf("%w: %s is repeated", ErrKindMismatch, name)
	}
	m.values[f.Index].str = b
	m.values[f.Index].set = true
	return nil
}

// SetMessage sets a nested message field.
func (m *Message) SetMessage(name string, v *Message) error {
	f, err := m.field(name, protodesc.KindMessage)
	if err != nil {
		return err
	}
	if f.Repeated {
		return fmt.Errorf("%w: %s is repeated", ErrKindMismatch, name)
	}
	if v != nil && v.desc != f.Message {
		return fmt.Errorf("%w: %s wants %s, got %s", ErrKindMismatch, name, f.Message.Name, v.desc.Name)
	}
	m.values[f.Index].msg = v
	m.values[f.Index].set = v != nil
	return nil
}

func (m *Message) setScalar(f *protodesc.Field, bits uint64) error {
	if f.Repeated {
		return fmt.Errorf("%w: %s is repeated", ErrKindMismatch, f.Name)
	}
	m.values[f.Index].num = bits
	m.values[f.Index].set = true
	return nil
}

// --- repeated setters -----------------------------------------------------

// AppendNum appends a numeric/bool/enum element to a repeated field; bits
// carries the raw value representation (IEEE bits for floats, two's
// complement for signed).
func (m *Message) AppendNum(name string, bits uint64) error {
	f := m.desc.FieldByName(name)
	if f == nil {
		return fmt.Errorf("%w: %s.%s", ErrUnknownField, m.desc.Name, name)
	}
	if !f.Repeated || !f.Kind.IsPackable() {
		return fmt.Errorf("%w: %s is not a repeated numeric field", ErrKindMismatch, name)
	}
	m.values[f.Index].nums = append(m.values[f.Index].nums, bits)
	m.values[f.Index].set = true
	return nil
}

// AppendString appends to a repeated string field.
func (m *Message) AppendString(name, v string) error {
	f, err := m.field(name, protodesc.KindString)
	if err != nil {
		return err
	}
	if !f.Repeated {
		return fmt.Errorf("%w: %s is not repeated", ErrKindMismatch, name)
	}
	if !utf8x.ValidString(v) {
		return wire.ErrInvalidUTF8
	}
	m.values[f.Index].strs = append(m.values[f.Index].strs, []byte(v))
	m.values[f.Index].set = true
	return nil
}

// AppendBytes appends b to a repeated bytes field by reference, under
// SetBytes's ownership rule.
func (m *Message) AppendBytes(name string, b []byte) error {
	f, err := m.field(name, protodesc.KindBytes)
	if err != nil {
		return err
	}
	if !f.Repeated {
		return fmt.Errorf("%w: %s is not repeated", ErrKindMismatch, name)
	}
	m.values[f.Index].strs = append(m.values[f.Index].strs, b)
	m.values[f.Index].set = true
	return nil
}

// AppendMessage appends to a repeated message field.
func (m *Message) AppendMessage(name string, v *Message) error {
	f, err := m.field(name, protodesc.KindMessage)
	if err != nil {
		return err
	}
	if !f.Repeated {
		return fmt.Errorf("%w: %s is not repeated", ErrKindMismatch, name)
	}
	if v == nil || v.desc != f.Message {
		return fmt.Errorf("%w: %s wants %s", ErrKindMismatch, name, f.Message.Name)
	}
	m.values[f.Index].msgs = append(m.values[f.Index].msgs, v)
	m.values[f.Index].set = true
	return nil
}

// --- getters ----------------------------------------------------------------

// Bool returns a bool field (false if unset).
func (m *Message) Bool(name string) bool { return m.bits(name) != 0 }

// Uint32 returns a uint32/fixed32 field.
func (m *Message) Uint32(name string) uint32 { return uint32(m.bits(name)) }

// Int32 returns an int32/sint32/sfixed32/enum field.
func (m *Message) Int32(name string) int32 { return int32(uint32(m.bits(name))) }

// Uint64 returns a uint64/fixed64 field.
func (m *Message) Uint64(name string) uint64 { return m.bits(name) }

// Int64 returns an int64/sint64/sfixed64 field.
func (m *Message) Int64(name string) int64 { return int64(m.bits(name)) }

// Float returns a float field.
func (m *Message) Float(name string) float32 { return math.Float32frombits(uint32(m.bits(name))) }

// Double returns a double field.
func (m *Message) Double(name string) float64 { return math.Float64frombits(m.bits(name)) }

// String returns a string field ("" if unset).
func (m *Message) GetString(name string) string {
	f := m.desc.FieldByName(name)
	if f == nil {
		return ""
	}
	return string(m.values[f.Index].str)
}

// Bytes returns a bytes field (nil if unset). The result aliases internal
// storage and must not be modified.
func (m *Message) Bytes(name string) []byte {
	f := m.desc.FieldByName(name)
	if f == nil {
		return nil
	}
	return m.values[f.Index].str
}

// Msg returns a nested message field (nil if unset).
func (m *Message) Msg(name string) *Message {
	f := m.desc.FieldByName(name)
	if f == nil {
		return nil
	}
	return m.values[f.Index].msg
}

// Nums returns the raw bit values of a repeated numeric field.
func (m *Message) Nums(name string) []uint64 {
	f := m.desc.FieldByName(name)
	if f == nil {
		return nil
	}
	return m.values[f.Index].nums
}

// Strs returns a repeated string/bytes field as byte slices.
func (m *Message) Strs(name string) [][]byte {
	f := m.desc.FieldByName(name)
	if f == nil {
		return nil
	}
	return m.values[f.Index].strs
}

// Msgs returns a repeated message field.
func (m *Message) Msgs(name string) []*Message {
	f := m.desc.FieldByName(name)
	if f == nil {
		return nil
	}
	return m.values[f.Index].msgs
}

func (m *Message) bits(name string) uint64 {
	f := m.desc.FieldByName(name)
	if f == nil {
		return 0
	}
	return m.values[f.Index].num
}

// MutableMsg returns the nested message for name, allocating it if unset.
func (m *Message) MutableMsg(name string) *Message {
	f := m.desc.FieldByName(name)
	if f == nil || f.Kind != protodesc.KindMessage || f.Repeated {
		return nil
	}
	if m.values[f.Index].msg == nil {
		m.values[f.Index].msg = New(f.Message)
		m.values[f.Index].set = true
	}
	return m.values[f.Index].msg
}

// Equal reports deep equality of two messages of the same type. Unset
// fields compare equal to zero-valued ones, matching proto3 semantics.
func Equal(a, b *Message) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.desc != b.desc {
		return false
	}
	for i, f := range a.desc.Fields {
		av, bv := &a.values[i], &b.values[i]
		if f.Repeated {
			if f.Kind == protodesc.KindMessage {
				if len(av.msgs) != len(bv.msgs) {
					return false
				}
				for j := range av.msgs {
					if !Equal(av.msgs[j], bv.msgs[j]) {
						return false
					}
				}
			} else if f.Kind == protodesc.KindString || f.Kind == protodesc.KindBytes {
				if len(av.strs) != len(bv.strs) {
					return false
				}
				for j := range av.strs {
					if string(av.strs[j]) != string(bv.strs[j]) {
						return false
					}
				}
			} else {
				if len(av.nums) != len(bv.nums) {
					return false
				}
				for j := range av.nums {
					if av.nums[j] != bv.nums[j] {
						return false
					}
				}
			}
			continue
		}
		switch f.Kind {
		case protodesc.KindMessage:
			if !Equal(av.msg, bv.msg) {
				return false
			}
		case protodesc.KindString, protodesc.KindBytes:
			if string(av.str) != string(bv.str) {
				return false
			}
		default:
			if av.num != bv.num {
				return false
			}
		}
	}
	return true
}
