module github.com/rgbproto/rgb/benchmark

go 1.24

require github.com/rgbproto/rgb v0.0.0

replace github.com/rgbproto/rgb => ../
