// Package a is fpcomplete golden testdata: fingerprint methods that
// cover, miss, and exempt exported fields.
package a

import "fmt"

// Complete hashes every exported field; unexported state is ignored.
type Complete struct {
	Width int
	Depth int
	cache map[string]string
}

func (c Complete) Fingerprint() string {
	return fmt.Sprintf("%d/%d", c.Width, c.Depth)
}

// Missing forgets KeepState — the pipeline.Config bug class this
// analyzer exists for.
type Missing struct {
	Width     int
	KeepState bool
}

func (m Missing) Fingerprint() string { // want `Missing.Fingerprint\(\) does not hash exported field KeepState`
	return fmt.Sprintf("%d", m.Width)
}

// Exempt marks its observer field as deliberately outside the hash.
type Exempt struct {
	Width int
	// Tracer is an observer and never changes simulated results.
	//lint:fpexempt observer only, does not alter behavior
	Tracer *int
}

func (e Exempt) Fingerprint() string {
	return fmt.Sprintf("%d", e.Width)
}

// BareExempt has the directive but no reason, which keeps it inert.
type BareExempt struct {
	Width int
	//lint:fpexempt
	Stale bool
}

func (b BareExempt) Fingerprint() string { // want `BareExempt.Fingerprint\(\) does not hash exported field Stale`
	return fmt.Sprintf("%d", b.Width)
}

// WholeValue passes the receiver to %+v, which renders every field.
type WholeValue struct {
	Width int
	Depth int
}

func (w WholeValue) Fingerprint() string {
	return fmt.Sprintf("%+v", w)
}

// Nested covers a struct-valued field by selecting through it.
type Inner struct{ Depth int }

type Nested struct {
	Plan Inner
}

func (n Nested) Fingerprint() string {
	return fmt.Sprintf("%d", n.Plan.Depth)
}

// Pointer receivers are checked the same way.
type PtrRecv struct {
	Width int
	Extra int
}

func (p *PtrRecv) Fingerprint() string { // want `PtrRecv.Fingerprint\(\) does not hash exported field Extra`
	return fmt.Sprintf("%d", p.Width)
}

// NotAFingerprint has the wrong signature and is left alone.
type NotAFingerprint struct {
	Width int
}

func (n NotAFingerprint) Fingerprint(extra string) string {
	return extra
}

// Appender renders through AppendFingerprint, which is checked in its
// own right; Fingerprint delegating to it covers every field.
type Appender struct {
	Width int
	Depth int
}

func (a Appender) Fingerprint() string { return string(a.AppendFingerprint(nil)) }

func (a Appender) AppendFingerprint(b []byte) []byte { // want `Appender.AppendFingerprint\(\) does not hash exported field Depth`
	return append(b, byte(a.Width))
}

// NotAnAppender has the wrong signature and is left alone.
type NotAnAppender struct {
	Width int
}

func (n NotAnAppender) AppendFingerprint(b string) []byte {
	return []byte(b)
}
