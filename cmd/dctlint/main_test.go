package main

import "testing"

func TestAnnotationFormat(t *testing.T) {
	f := finding{
		File:     "internal/core/report.go",
		Line:     42,
		Column:   7,
		Analyzer: "gostmt",
		Message:  "unregistered go statement",
	}
	want := "::error file=internal/core/report.go,line=42,col=7," +
		"title=dctlint/gostmt::unregistered go statement"
	if got := annotation(f); got != want {
		t.Errorf("annotation:\n got %q\nwant %q", got, want)
	}
}

func TestAnnotationEscaping(t *testing.T) {
	f := finding{
		File:     "dir,with:odd%name.go",
		Line:     1,
		Column:   1,
		Analyzer: "mapiter",
		Message:  "100% of runs\nvary",
	}
	want := "::error file=dir%2Cwith%3Aodd%25name.go,line=1,col=1," +
		"title=dctlint/mapiter::100%25 of runs%0Avary"
	if got := annotation(f); got != want {
		t.Errorf("annotation:\n got %q\nwant %q", got, want)
	}
}
