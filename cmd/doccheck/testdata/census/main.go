package main

import (
	"flag"
	"fmt"

	"fixture/internal/core"
	"fixture/internal/lib"
	"fixture/internal/metrics"
)

func main() {
	o := lib.Options{Set: 1}
	flag.IntVar(&o.Addressed, "addressed", 0, "")
	var reg metrics.Registry
	reg.Counter("fixture_documented_total", "")
	reg.Counter("fixture_undocumented_total", "")
	core.Wait(func() bool { return true })
	fmt.Println(lib.Named{}, lib.Box[int]{V: 1}.Get(), lib.New(o))
}
