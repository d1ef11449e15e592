package main

import "deadcode/internal/a"

func main() {
	println(a.U{}.Len(), a.Run(a.Options{}, a.Config{Depth: 2}), a.Measure(a.V{}))
}
