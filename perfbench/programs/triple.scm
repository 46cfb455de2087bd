;; shift/reset over the native tagged prompts.
(define triple-tag-a (make-continuation-prompt-tag 'triple-a))
(define triple-tag-b (make-continuation-prompt-tag 'triple-b))

(define (reset-with tag thunk)
  (call-with-continuation-prompt thunk tag (lambda (t) (t))))

(define (shift-with tag f)
  (call-with-composable-continuation
   (lambda (k)
     (abort-current-continuation tag
       (lambda ()
         (f (lambda (v)
              (call-with-continuation-prompt (lambda () (k v)) tag
                                             (lambda (t) (t))))))))
   tag))

(define (sum-range-with tag lo hi)
  (shift-with tag
    (lambda (k)
      (let loop ([i lo] [acc 0])
        (if (> i hi) acc (loop (+ i 1) (+ acc (k i))))))))

(define (triple-native n)
  (reset-with triple-tag-a
    (lambda ()
      (let ([i (sum-range-with triple-tag-a 0 n)])
        (reset-with triple-tag-b
          (lambda ()
            (let ([j (sum-range-with triple-tag-b 0 n)])
              (let ([k (- n (+ i j))])
                (if (and (>= k 0) (<= i j) (<= j k)) 1 0)))))))))
